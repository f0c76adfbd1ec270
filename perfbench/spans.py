"""Span tracing of khtorsion's layers, installed from outside the program.

`Tracer.installed()` replaces the boundary callables of every layer
(`BOUNDARY`) by timing wrappers at each of their bindings inside the
package: the defining module, every module that imported the name (under
any alias), the package namespace, and the class dictionary for methods.
On exit every binding gets its original back.

Each wrapped call is one span: name, start, end, parent span and item id,
stored in parallel arrays kept in memory and written once by `save`.  A
span's self time is its duration minus the durations of its children;
spans nest strictly because the program is single-threaded.  Counters that
are not call counts (matrix sizes, chain lengths) are summed by hooks at
the same boundaries; each hook call is a `trace.hook` span of its own, so
its cost is reported as `trace.hook_s` and not in a layer's self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# layer -> the callables whose calls are its spans ("Class.method" for
# methods).  Chain arithmetic is the accumulation behind `differential`.
BOUNDARY = {
    "cli": ("main",),
    "diagram": ("parse_pd", "pretzel", "monocircular", "rational",
                "braid3_closure", "reorder_crossings", "Diagram.mirror",
                "Diagram.faces", "Diagram.bigons", "Diagram.stats",
                "Diagram.pd_text"),
    "smoothing": ("smooth", "enumerate_states", "degrees", "signed_state",
                  "Smoothing.__init__", "Chain.__add__", "Chain.__sub__",
                  "Chain.__mul__", "Chain.__rmul__", "Chain.__neg__"),
    "chaincomplex": ("differential", "boundary_matrix"),
    "homology": ("smith_normal_form", "homology_at", "khovanov_table",
                 "is_exact", "class_order"),
    "ladders": ("detect_ladders", "check_hypotheses", "periphery_number",
                "break_ladders", "ladder_first_permutation"),
    "torsion": ("certify_torsion", "state_sum", "chain_X", "chain_V",
                "verify_dX_2V", "build_even_module", "verify_evenness",
                "certify_not_exact", "all_even_tuples"),
}

SNF = "homology.smith_normal_form"
SNF_T = "homology.smith_normal_form[transforms]"
HOOK = "trace.hook"
CHAIN_OPS = tuple(f"smoothing.Chain.{op}" for op in
                  ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__"))

COLUMNS = (("item", "i"), ("parent", "i"), ("name", "i"),
           ("start", "d"), ("end", "d"))


def _snf_hook(tracer, idx, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    transforms = args[1] if len(args) > 1 else kwargs.get("transforms", True)
    if transforms:
        tracer.name[idx] = tracer.intern(SNF_T)
    else:
        tracer.values["homology.snf_nnz_in"] += matrix.nnz()
        dim = max(matrix.nrows, matrix.ncols)
        tracer.values["homology.snf_max_dim"] = max(
            dim, tracer.values["homology.snf_max_dim"])
    if id(matrix) in tracer.factored:
        tracer.values["homology.snf_repeat"] += 1
    tracer.factored[id(matrix)] = matrix  # kept alive so ids stay unique


def _enumerate_hook(tracer, idx, args, kwargs, result):
    tracer.values["smoothing.states_enumerated"] += len(result)


def _differential_hook(tracer, idx, args, kwargs, result):
    arg = args[1] if len(args) > 1 else kwargs["arg"]
    coeffs = getattr(arg, "coeffs", None)
    tracer.values["chaincomplex.differential_terms_in"] += (
        1 if coeffs is None else len(coeffs))


def _matrix_hook(tracer, idx, args, kwargs, result):
    tracer.values["chaincomplex.matrix_nnz"] += result.nnz()


def _state_sum_hook(tracer, idx, args, kwargs, result):
    tracer.values["torsion.state_sum_terms"] += len(result.coeffs)


HOOKS = {
    SNF: _snf_hook,
    "smoothing.enumerate_states": _enumerate_hook,
    "chaincomplex.differential": _differential_hook,
    "chaincomplex.boundary_matrix": _matrix_hook,
    "torsion.state_sum": _state_sum_hook,
}


class Tracer:
    """Spans and counters of the traced passes of one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        for col, code in COLUMNS:
            setattr(self, col, array(code))
        self.values: Counter = Counter()
        self.factored: dict[int, object] = {}
        self.item_id = -1
        self._stack = [-1]
        self._mark = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_item(self, item_id: int) -> None:
        self.item_id = item_id
        self.factored.clear()

    def _wrap(self, fn, name):
        nid = self.intern(name)
        hook = HOOKS.get(name)
        hook_id = self.intern(HOOK)
        stack = self._stack
        items, parents, names = self.item, self.parent, self.name
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            items.append(self.item_id)
            parents.append(stack[-1])
            names.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                # the hook's own span, a sibling of this one, so that its
                # cost stays out of every layer's self time
                hidx = len(starts)
                items.append(self.item_id)
                parents.append(stack[-1])
                names.append(hook_id)
                starts.append(0.0)
                ends.append(0.0)
                t1 = clock()
                hook(self, idx, args, kwargs, result)
                ends[hidx] = clock()
                starts[hidx] = t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.perfbench_span = name
        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap every binding of the boundary callables of `package`
        (the imported khtorsion package) for the duration of the block."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        restore = []
        try:
            for layer, callables in BOUNDARY.items():
                mod = sys.modules[f"{prefix}.{layer}"]
                for qual in callables:
                    name = f"{layer}.{qual}"
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        cls = getattr(mod, cls_name)
                        original = cls.__dict__[attr]
                        restore.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(original, name))
                        continue
                    original = getattr(mod, qual)
                    wrapper = self._wrap(original, name)
                    for m in modules:
                        for attr in [a for a, v in vars(m).items()
                                     if v is original]:
                            restore.append((m, attr, original))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(restore):
                setattr(obj, attr, original)

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans and counters recorded since the
        previous call, without the `trace.*` pass totals."""
        lo, hi = self._mark, len(self.start)
        self._mark = hi
        starts, ends, parents = self.start, self.end, self.parent
        child = [0.0] * (hi - lo)
        for k in range(lo, hi):
            p = parents[k]
            if p >= 0:
                child[p - lo] += ends[k] - starts[k]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        names = self.name
        for k in range(lo, hi):
            nid = names[k]
            self_s[nid] += ends[k] - starts[k] - child[k - lo]
            calls[nid] += 1
        by_name = {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

        def count(*keys):
            return sum(by_name.get(k, (0, 0.0))[0] for k in keys)

        def secs(*keys):
            return sum(by_name.get(k, (0, 0.0))[1] for k in keys)

        def layer(prefix):
            return [n for n in by_name if n.startswith(prefix + ".")]

        values, self.values = self.values, Counter()
        smooth_calls = count("smoothing.smooth")
        built = count("smoothing.Smoothing.__init__")
        own = {  # spans reported under their own metric, not in self_s
            "smoothing": CHAIN_OPS,
            "homology": (SNF, SNF_T),
            "torsion": ("torsion.state_sum", "torsion.verify_evenness"),
        }

        def rest(prefix):
            return secs(*[n for n in layer(prefix)
                          if n not in own.get(prefix, ())])

        metrics = {
            "cli.self_s": secs("cli.main"),
            "diagram.calls": count(*layer("diagram")),
            "diagram.self_s": rest("diagram"),
            "smoothing.smooth_calls": smooth_calls,
            "smoothing.smoothings_built": built,
            "smoothing.cache_hit_ratio":
                (smooth_calls - built) / smooth_calls if smooth_calls else 0.0,
            "smoothing.states_enumerated":
                values["smoothing.states_enumerated"],
            "smoothing.chain_adds": count("smoothing.Chain.__add__"),
            "smoothing.chain_s": secs(*CHAIN_OPS),
            "smoothing.self_s": rest("smoothing"),
            "chaincomplex.matrices": count("chaincomplex.boundary_matrix"),
            "chaincomplex.matrix_nnz": values["chaincomplex.matrix_nnz"],
            "chaincomplex.assembly_s": secs("chaincomplex.boundary_matrix"),
            "chaincomplex.differential_calls":
                count("chaincomplex.differential"),
            "chaincomplex.differential_terms_in":
                values["chaincomplex.differential_terms_in"],
            "chaincomplex.differential_s": secs("chaincomplex.differential"),
            "homology.snf_calls": count(SNF),
            "homology.snf_s": secs(SNF),
            "homology.snf_nnz_in": values["homology.snf_nnz_in"],
            "homology.snf_max_dim": values["homology.snf_max_dim"],
            "homology.snf_t_calls": count(SNF_T),
            "homology.snf_t_s": secs(SNF_T),
            "homology.snf_repeat": values["homology.snf_repeat"],
            "homology.exact_calls": count("homology.is_exact"),
            "homology.order_calls": count("homology.class_order"),
            "homology.self_s": rest("homology"),
            "ladders.calls": count(*layer("ladders")),
            "ladders.self_s": rest("ladders"),
            "torsion.certificates": count("torsion.certify_torsion"),
            "torsion.state_sum_terms":
                values["torsion.state_sum_terms"],
            "torsion.state_sum_s": secs("torsion.state_sum"),
            "torsion.evenness_s": secs("torsion.verify_evenness"),
            "torsion.self_s": rest("torsion"),
            "trace.hook_s": secs(HOOK),
        }
        return metrics

    def save(self, path) -> None:
        """Write every recorded span: one JSON header line, then the
        columns as raw machine arrays in `COLUMNS` order."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": [[c, code] for c, code in COLUMNS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in COLUMNS:
                getattr(self, col).tofile(fh)


def load(path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by `Tracer.save`: (span names, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for col, code in header["columns"]:
            columns[col] = array(code)
            columns[col].fromfile(fh, header["count"])
    return header["names"], columns
