"""The public surface of ``src/affq`` is what the program calls.

A module-level public function counts as called when its name is
referenced by the code of ``src/affq`` outside its own body (docstrings,
and so doctests, are not code) or by ``bench/*.py`` as
``<alias or module>.<name>``.  Every uncalled public function must be on
the allowlist below, so API that only tests reach cannot creep back.

Every public top-level ``def`` must also stay a plain function at
runtime: ``bench/tracer.py`` times only what ``inspect.isfunction``
accepts, so a memo decorator on a public name would hide it from the
per-layer metrics.  Memo tables go on private helpers.
"""

import ast
import importlib
import inspect
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


def _references(tree, module, mods, names):
    """(module, name, enclosing top-level def) for every name reference."""
    defs = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in mods:
                    out.append((mods[node.value.id], node.attr, owner))
            elif isinstance(node, ast.Name):
                if node.id in names:
                    out.append(names[node.id] + (owner,))
                elif node.id in defs:
                    out.append((module, node.id, owner))
    return out


def uncalled_public_functions():
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
        "%s.%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and (module, node.name) not in called
    }


def test_only_the_allowlist_is_uncalled():
    assert sorted(uncalled_public_functions()) == sorted(ALLOWED)


def test_public_functions_are_plain_functions():
    wrapped = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("affq." + path.stem)
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not inspect.isfunction(getattr(module, node.name)):
                    wrapped.append("%s.%s" % (path.stem, node.name))
    assert wrapped == []
