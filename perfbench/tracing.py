"""Timing spans around the public entry points of every iskk layer.

The tracer patches functions from outside the package: each wrapped module
function is also replaced wherever a sibling module imported the same
object (``crossed.nullspace`` is ``linalg.nullspace``), and the originals are
put back when the tracer is uninstalled. Spans are kept in flat arrays in
memory (name, start, end, parent, case) and written out once at the end.
"""

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np

# Span names that differ from "<module>.<function>": the three crossed-product
# builders are private, so the universal product built inside the tight one
# gets its own span, and the two semisimple entry points get short names.
RENAMED = {
    ("crossed", "_universal"): "crossed.universal",
    ("crossed", "_sieben"): "crossed.sieben",
    ("crossed", "_groupoid"): "crossed.groupoid",
    ("crossed", "semisimple_quotient"): "crossed.semisimple",
    ("crossed", "numeric_block_oracle"): "crossed.oracle",
}

# Bit helpers and cached accessors that take well under a microsecond: a span
# would cost more than the work it measures (they run millions of times in
# induction-lemmas), so their time stays with the caller.
SKIPPED = {
    "semigroup": {"bit", "mask_of", "popcount", "leq", "idempotents", "nonzero_idempotents"},
    "spectrum": {"spectrum", "proj", "germ_key", "germ_source", "germ_range", "germ_is_unit"},
    "linalg": {"frac", "zeros", "identity", "is_zero_vec"},
}

# Methods that carry most of the inner-loop work; Span.add also counts how
# many of the vectors offered to a span were independent of it.
METHODS = [
    ("galgebra", "StarAlgebra", "mul_vec", "galgebra.mul_vec"),
    ("linalg", "Span", "add", "linalg.span_add"),
]

METHOD_SPANS = {name for *_, name in METHODS}

LAYERS = ("semigroup", "spectrum", "linalg", "galgebra", "induction", "crossed", "ktheory", "l2module")


def _targets(modules):
    """(module name, attribute, original function, span name) per wrapped function."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        for attr, fn in vars(mod).items():
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if inspect.isgeneratorfunction(fn) or attr in SKIPPED.get(layer, ()):
                continue
            name = RENAMED.get((layer, attr))
            if name is None and attr.startswith("_"):
                continue
            out.append((layer, attr, fn, name or f"{layer}.{attr}"))
    return out


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self, modules):
        self.modules = modules
        self.names = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("H")
        self.case_id = 0
        self.stack = [-1]
        self.accepted = 0
        self.semisimple_args = {}
        self.products = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self):
        for layer, attr, fn, name in _targets(self.modules):
            wrapped = self._wrap(fn, name)
            if name == "crossed.semisimple":
                wrapped = self._note_semisimple(wrapped)
            elif name in ("crossed.universal", "crossed.sieben", "crossed.groupoid"):
                wrapped = self._note_product(wrapped)
            for mod in self.modules.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapped)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = cls.__dict__[meth]
            wrapped = self._wrap(fn, name)
            if name == "linalg.span_add":
                wrapped = self._note_accept(wrapped)
            self._patch(cls, meth, wrapped)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, key, wrapped):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, case, stack = (
            self.span_name, self.start, self.end, self.parent, self.case, self.stack)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            case.append(tracer.case_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _note_accept(self, wrapped):
        def add(span, v):
            ok = wrapped(span, v)
            if ok:
                self.accepted += 1
            return ok
        return add

    def _note_semisimple(self, wrapped):
        as_alg = self.modules["crossed"]._as_star_algebra

        def semisimple_quotient(x):
            alg = as_alg(x)
            self.semisimple_args[id(alg)] = alg  # keeps the id unique
            return wrapped(x)
        return semisimple_quotient

    def _note_product(self, wrapped):
        def build(coeff):
            out = wrapped(coeff)
            self.products.append(out)
            return out
        return build

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Per span name: (number of spans, total self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def metrics(self):
        """The per-layer metrics of the traced pass, by name: (value, unit)."""
        st = self.self_times()
        calls = {name: n for name, (n, _) in st.items()}
        self_s = {name: t for name, (_, t) in st.items()}

        def layer_self(layer):
            return sum(t for name, t in self_s.items() if name.split(".")[0] == layer)

        def layer_calls(layer):  # module functions only; the two methods have their own counts
            return sum(n for name, n in calls.items()
                       if name.split(".")[0] == layer and name not in METHOD_SPANS)

        ss_calls = calls.get("crossed.semisimple", 0)
        add_calls = calls.get("linalg.span_add", 0)
        out = {
            "crossed.semisimple.self_s": (self_s.get("crossed.semisimple", 0.0), "s"),
            "crossed.semisimple.calls": (ss_calls, "count"),
            "crossed.semisimple.calls_per_algebra": (
                ss_calls / len(self.semisimple_args) if self.semisimple_args else 0.0, "ratio"),
            "crossed.oracle.self_s": (self_s.get("crossed.oracle", 0.0), "s"),
            "crossed.oracle.calls": (calls.get("crossed.oracle", 0), "count"),
            "crossed.universal.self_s": (self_s.get("crossed.universal", 0.0), "s"),
            "crossed.sieben.self_s": (self_s.get("crossed.sieben", 0.0), "s"),
            "crossed.groupoid.self_s": (self_s.get("crossed.groupoid", 0.0), "s"),
            "crossed.dim_sum": (sum(p.dim for p in self.products), "count"),
            "crossed.nnz_sum": (sum(len(cell) for p in self.products for cell in p.alg.mul.values()),
                                "count"),
            "linalg.self_s": (layer_self("linalg"), "s"),
            "linalg.nullspace.calls": (calls.get("linalg.nullspace", 0), "count"),
            "linalg.rref.calls": (calls.get("linalg.rref", 0), "count"),
            "linalg.span_add.calls": (add_calls, "count"),
            "linalg.span_add.accept_ratio": (self.accepted / add_calls if add_calls else 0.0, "ratio"),
            "galgebra.mul_vec.calls": (calls.get("galgebra.mul_vec", 0), "count"),
            "ktheory.k0.calls": (calls.get("ktheory.k0", 0), "count"),
            "ktheory.k0_map.calls": (calls.get("ktheory.k0_map", 0), "count"),
        }
        for layer in ("galgebra", "induction", "spectrum", "semigroup", "ktheory", "l2module"):
            out[f"{layer}.self_s"] = (layer_self(layer), "s")
        for layer in ("galgebra", "induction", "spectrum", "semigroup"):
            out[f"{layer}.calls"] = (layer_calls(layer), "count")
        return out

    def write(self, path, case_ids):
        """Save the spans as columns; ``case`` indexes ``case_ids``, ``name`` indexes ``names``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), case_ids=np.array(case_ids),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 case=np.frombuffer(self.case, dtype=np.uint16))
