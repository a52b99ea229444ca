"""The public surface of ``src/affq`` is what the program reads.

A module-level public function or constant counts as read when its name
is referenced by the code of ``src/affq`` outside its own body (docstrings,
and so doctests, are not code) or by ``bench/*.py`` as
``<alias or module>.<name>``.  Every unread public name must be on the
allowlist below, so API that only tests reach cannot creep back.

Every public top-level ``def`` must also stay a plain function at
runtime: ``bench/tracer.py`` times only what ``inspect.isfunction``
accepts, so a memo decorator on a public name would hide it from the
per-layer metrics.  Memo tables go on private helpers, and the
``laurent`` docstring lists every one of them.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "affq"

ALLOWED = {
    # the text renderers and the matrix builders of the modules' doctests
    "hecke.text",
    "schur.text",
    "realization.text",
    "matrices.e_unit",
    "matrices.mscale",
    # with s_zero and s_eq, the linear structure of SchurElement that the
    # other two element types have (tests/test_no_mutation.py uses s_add)
    "schur.s_add",
    "schur.s_scale",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _aliases(tree):
    """Module aliases and directly imported names of the package modules."""
    mods, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    mods[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = (node.module, a.name)
    return mods, names


def _top_names(tree):
    """The names of the top-level defs and module-level constants."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def _references(tree, module, mods, names):
    """(module, name, enclosing top-level def) for every name read."""
    defs = _top_names(tree)
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in mods:
                    out.append((mods[node.value.id], node.attr, owner))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names:
                    out.append(names[node.id] + (owner,))
                elif node.id in defs:
                    out.append((module, node.id, owner))
    return out


def unread_public_names():
    trees = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
    called = set()
    aliases = {}
    for module, tree in trees.items():
        mods, names = _aliases(tree)
        aliases.update(mods)
        for mod, name, owner in _references(tree, module, mods, names):
            if (mod, name) != (module, owner):
                called.add((mod, name))
    aliases.update({m: m for m in trees})
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    called.add((aliases[node.value.id], node.attr))
    return {
        "%s.%s" % (module, name)
        for module, tree in trees.items()
        for name in _top_names(tree)
        if not name.startswith("_") and (module, name) not in called
    }


def test_only_the_allowlist_is_uncalled():
    assert sorted(unread_public_names()) == sorted(ALLOWED)


def test_public_functions_are_plain_functions():
    wrapped = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("affq." + path.stem)
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not inspect.isfunction(getattr(module, node.name)):
                    wrapped.append("%s.%s" % (path.stem, node.name))
    assert wrapped == []


def _decorator_name(node):
    """'functools.lru_cache' for @functools.lru_cache(...) and the like."""
    if isinstance(node, ast.Call):
        node = node.func
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _lru_bound(deco, prefix):
    """The laurent constant that bounds the lru_cache decorator deco, read
    from the one form lru_cache(maxsize=<prefix><NAME>CACHE_SIZE), else ""."""
    call = isinstance(deco, ast.Call) and not deco.args
    size = [k.value for k in deco.keywords if k.arg == "maxsize"] if call else []
    bound = _decorator_name(size[0]) if len(size) == 1 else ""
    const = bound[len(prefix):] if bound.startswith(prefix) else ""
    return const if "." not in const and const.endswith("CACHE_SIZE") else ""


def unbounded_memos(tree, prefix="L."):
    """Names of the functions in tree whose memo table may be unbounded: an
    lru_cache whose maxsize is not one of the *CACHE_SIZE constants of
    laurent, or a functools.cache on a function that takes arguments.  The
    constants are read as prefix + name: L.<NAME> outside laurent, and the
    bare global name (prefix "") inside it."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            name = _decorator_name(deco)
            if name in ("functools.lru_cache", "lru_cache"):
                if not _lru_bound(deco, prefix):
                    bad.append(node.name)
            elif name in ("functools.cache", "cache"):
                a = node.args
                if a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg:
                    bad.append(node.name)
    return bad


def test_every_memo_table_is_bounded():
    bad = {
        path.stem: unbounded_memos(_parse(path), "" if path.stem == "laurent" else "L.")
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in bad.items() if v} == {}
    snippet = ast.parse(
        "@functools.lru_cache(maxsize=L.CACHE_SIZE)\ndef ok(x): pass\n"
        "@functools.cache\ndef const(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x): pass\n"
        "@functools.lru_cache\ndef b(x): pass\n"
        "@functools.lru_cache(1024)\ndef c(x): pass\n"
        "@functools.cache\ndef d(x): pass\n"
        "@functools.lru_cache(maxsize=CACHE_SIZE)\ndef e(x): pass\n"
    )
    assert unbounded_memos(snippet) == ["a", "b", "c", "d", "e"]
    home = ast.parse(
        "@functools.lru_cache(maxsize=CACHE_SIZE)\ndef ok(x): pass\n"
        "@functools.lru_cache(maxsize=L.CACHE_SIZE)\ndef f(x): pass\n"
        "@functools.lru_cache(maxsize=SIZE)\ndef g(x): pass\n"
    )
    assert unbounded_memos(home, "") == ["f", "g"]


def memo_tables():
    """{module._name: the laurent constant of its maxsize} for every
    lru_cache function of src/affq: the memo tables (cli._parser, a
    functools.cache without arguments, holds one value and is no table)."""
    return {
        "%s.%s" % (path.stem, node.name): _lru_bound(d, "" if path.stem == "laurent" else "L.")
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef)
        for d in node.decorator_list
        if _decorator_name(d) in ("functools.lru_cache", "lru_cache")
    }


def test_the_laurent_docstring_lists_every_memo_table():
    # each entry opens with "* module._name (BOUND):", BOUND the decorator's maxsize
    doc = ast.get_docstring(_parse(SRC / "laurent.py"))
    listed = re.findall(r"^\* (\w+\.\w+) \((\w+)\):", doc, re.M)
    assert len(listed) == len(dict(listed))
    assert dict(listed) == memo_tables()
