"""Per-layer spans recorded from outside the program.

The tracer finds each layer's public functions by introspecting its module
at run time: every module-level function defined there whose name does not
start with an underscore.  It replaces each one, in every module namespace
that refers to it, by a wrapper that times the call.  Because the library
calls across modules through module attributes (``L.mul``) and within a
module through globals, every call is caught.  Private helpers and the
methods of the library's classes are charged to the public function that
called them.

A span's self time is its duration minus the durations of the wrapped calls
made under it.  Spans are aggregated in memory per function, and the
aggregate is turned into metrics when the pass ends.  Nothing here reads a
private name of the library: a function that is deleted or moved later is
reported as absent.
"""

import functools
import inspect
import time

LAYERS = (
    "laurent",
    "matrices",
    "permutations",
    "hecke",
    "schur",
    "hall",
    "realization",
    "verify",
    "cli",
)

# Functions whose distinct argument tuples are counted: the input property
# that memoization depends on.
REPEAT_KEYED = {
    ("laurent", "gauss_sq"),
    ("schur", "oracle_mul"),
    ("schur", "A_j_r"),
    ("hall", "submodule_census"),
}



def _den_span(frac):
    return max(frac.den) - min(frac.den)


def _support(elem):
    return len(elem.terms)


# Returned objects whose size is tracked, per layer: (public class, metric,
# size function).  The metric is the largest size any public function of
# the layer returned.
SIZED_RESULTS = {
    "laurent": ("LaurentFraction", "laurent.frac_den_span.max", _den_span),
    "hecke": ("HeckeElement", "hecke.support.max", _support),
    "realization": ("VElement", "realization.terms.max", _support),
}


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Wraps the public functions of the given layer modules."""

    def __init__(self, modules):
        self.modules = dict(modules)
        self.stats = {}  # (layer, name) -> [calls, self seconds, errors]
        self.keys = {}  # (layer, name) -> set of argument keys
        self.maxima = {}  # metric name -> largest size seen
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every public function; returns self for chaining."""
        replaced = {}
        for layer, mod in self.modules.items():
            sizer = None
            if layer in SIZED_RESULTS:
                cls_name, metric, size = SIZED_RESULTS[layer]
                cls = getattr(mod, cls_name, None)
                if isinstance(cls, type):
                    sizer = (cls, size, metric)
                    self.maxima[metric] = 0
            for name, fn in sorted(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                replaced[id(fn)] = (fn, self._wrap(layer, name, fn, sizer))
        # Rebind every module-level reference to a wrapped function,
        # including names imported into other modules.
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, layer, name, fn, sizer):
        stat = self.stats.setdefault((layer, name), [0, 0.0, 0])
        keys = self.keys.setdefault((layer, name), set()) if (layer, name) in REPEAT_KEYED else None
        stack = self._stack
        clock = time.perf_counter
        maxima = self.maxima

        def finish(t0):
            dt = clock() - t0
            stat[1] += dt - stack.pop()
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            # Time each resume of the generator as its own span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        finish(t0)
                        return
                    except BaseException:
                        stat[2] += 1
                        finish(t0)
                        raise
                    finish(t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
            stat[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                finish(t0)
                raise
            finish(t0)
            if sizer is not None and isinstance(res, sizer[0]):
                size = sizer[1](res)
                if size > maxima[sizer[2]]:
                    maxima[sizer[2]] = size
            return res

        return wrapper

    # -- metrics --------------------------------------------------------

    def _sum(self, layer, select):
        """(calls, self seconds, present) over the layer's matching functions."""
        calls, self_s, found = 0, 0.0, False
        for (lay, name), (c, s, _) in self.stats.items():
            if lay == layer and select(name):
                calls += c
                self_s += s
                found = True
        return calls, self_s, found

    def metrics(self):
        """Per-layer metric name -> value, and the sorted list of absent ones."""
        out = {}
        absent = []

        def put(name, value, found):
            if found:
                out[name] = value
            else:
                absent.append(name)

        for layer in LAYERS:
            present = layer in self.modules
            stats = [v for (lay, _), v in self.stats.items() if lay == layer]
            put(layer + ".calls", sum(v[0] for v in stats), present)
            put(layer + ".self_s", sum(v[1] for v in stats), present)
            put(layer + ".errors", sum(v[2] for v in stats), present)

        def family(metric_base, layer, select, with_time=True):
            calls, self_s, found = self._sum(layer, select)
            put(metric_base + ".calls", calls, found)
            if with_time:
                put(metric_base + ".self_s", self_s, found)

        def named(*names):
            return lambda name: name in names

        family("laurent.mul", "laurent", named("mul"))
        family("laurent.divexact", "laurent", named("divexact"), with_time=False)
        family("laurent.frac", "laurent", lambda q: q == "fraction" or q.startswith("frac_"))
        family("laurent.gauss_sq", "laurent", named("gauss_sq"), with_time=False)
        family("matrices.pmat", "matrices", named("pmat"))
        family("permutations.length", "permutations", named("length"))
        family("hecke.left_mul_gen", "hecke", named("left_mul_gen"))
        family("schur.oracle", "schur", named("oracle_mul", "oracle_product"))
        family(
            "schur.closed",
            "schur",
            lambda q: q.startswith(("e_mul_", "n_mul_", "closed_product_")),
        )
        family("schur.A_j_r", "schur", named("A_j_r"), with_time=False)
        family("hall.submodule_census", "hall", named("submodule_census"))
        family("hall.enumerate_labels", "hall", named("enumerate_labels"), with_time=False)
        family("realization.eval_at_level", "realization", named("eval_at_level"))
        family(
            "realization.products",
            "realization",
            lambda q: q.startswith("mul_by_") or q == "mul_0j_right",
        )
        family("realization.reduce_j_lambda", "realization", named("reduce_j_lambda"), with_time=False)

        for layer, name in sorted(REPEAT_KEYED):
            calls = self.stats.get((layer, name), [0])[0]
            distinct = len(self.keys.get((layer, name), ()))
            share = 1.0 - distinct / calls if calls else 0.0
            put("%s.%s.repeat_share" % (layer, name), share, (layer, name) in self.stats)

        for _, metric, _ in SIZED_RESULTS.values():
            put(metric, self.maxima.get(metric, 0), metric in self.maxima)
        return out, sorted(absent)
