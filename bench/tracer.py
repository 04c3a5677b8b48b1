"""Span tracer installed from outside the package by rebinding module names.

Each wrapped function records one span: name, start, end and parent index.
Spans live in flat arrays while the traced pass runs and are summarised into
per-layer metrics afterwards.  Counts are taken at the call boundary from the
operands; the clock is paused while they are taken, so counting never shows
up in any span's time.

Rules for the wrapping:

* every module-level name in ``grasschur.*`` bound to a wrapped function is
  rebound, because modules import by name (``from .algebra import mul``);
* ``ThetaFunction.normalization``, ``ThetaFunction.eval_at`` and
  ``BlaschkeFactor.eval_at`` are patched on their classes;
* per-term helpers are left alone: a span per monomial pair would time the
  tracer, so their cost stays in the caller's self time.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("algebra", "matrix", "series", "realization", "toeplitz", "schur", "serialization", "cli")

# called once per monomial pair or per key inside the kernel
_PER_TERM = {
    "merge_swap_count", "basis_mul", "grade", "dagger_sign",
    "index_from_generators", "index_to_generators",
    "_require_same_context", "_mul_vectorized", "_sign_table", "_popcount_array",
}
_METHODS = (("ThetaFunction", "normalization"), ("ThetaFunction", "eval_at"),
            ("BlaschkeFactor", "eval_at"))
_PAIR_LOOP_MAX = 256  # operand pairs counted in Python below this, in numpy above


def is_time(metric: str) -> bool:
    """Whether a summary metric is a time or a ratio of times (the rest are counts)."""
    return metric.endswith("_s") or metric == "schur.verify_share"


class Tracer:
    """Records spans for the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.paused = 0.0
        self.counts = {"mul.term_pairs": 0, "mul.disjoint_pairs": 0, "mul.operand_terms": 0,
                       "mat_mul.entry_products": 0, "bytes_out": 0}
        self._wrappers: dict = {}   # original function -> its traced wrapper
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind the wrapped functions; wrappers are made once per tracer."""
        if not self._wrappers:
            self._make_wrappers()
        for module_name, module in list(sys.modules.items()):
            if module_name != "grasschur" and not module_name.startswith("grasschur."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patch(module, name, self._wrappers[value])
        schur = sys.modules["grasschur.schur"]
        for cls_name, method in _METHODS:
            cls = getattr(schur, cls_name)
            self._patch(cls, method, self._wrappers[vars(cls)[method]])

    def _make_wrappers(self) -> None:
        counters = {"algebra.mul": self._count_mul, "matrix.mat_mul": self._count_mat_mul,
                    "serialization.dumps": self._count_dumps}
        for layer in LAYERS:
            module = sys.modules[f"grasschur.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in _PER_TERM):
                    span = f"{layer}.{name}"
                    self._wrappers[fn] = self._wrap(fn, span, counters.get(span))
        schur = sys.modules["grasschur.schur"]
        for cls_name, method in _METHODS:
            fn = vars(getattr(schur, cls_name))[method]
            self._wrappers[fn] = self._wrap(fn, f"schur.{cls_name}.{method}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, fn, name, count=None):
        self.names.append(name)
        sid = len(self.names) - 1
        sids, parents, starts, ends = self.sid, self.parent, self.start, self.end
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            parent = rec.current
            idx = len(starts)
            sids.append(sid)
            parents.append(parent)
            starts.append(clock() - rec.paused)
            ends.append(0.0)
            rec.current = idx
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock() - rec.paused
                rec.current = parent
            if count is not None:
                began = clock()
                count(args, out)
                rec.paused += clock() - began
            return out

        return traced

    # -- counts at the call boundary ------------------------------------------

    def _count_mul(self, args, out) -> None:
        a, b = list(args[0].terms), list(args[1].terms)
        pairs = len(a) * len(b)
        if pairs <= _PAIR_LOOP_MAX:
            disjoint = sum(1 for x in a for y in b if not x & y)
        else:
            ka = np.fromiter(a, dtype=np.uint64, count=len(a))
            kb = np.fromiter(b, dtype=np.uint64, count=len(b))
            disjoint = int(np.count_nonzero((ka[:, None] & kb[None, :]) == 0))
        c = self.counts
        c["mul.term_pairs"] += pairs
        c["mul.disjoint_pairs"] += disjoint
        c["mul.operand_terms"] += len(a) + len(b)

    def _count_mat_mul(self, args, out) -> None:
        m, l = args[0], args[1]
        self.counts["mat_mul.entry_products"] += m.rows * m.cols * l.cols

    def _count_dumps(self, args, out) -> None:
        self.counts["bytes_out"] += len(out.encode())

    # -- output ----------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.sid, dtype=np.int32), np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64), np.frombuffer(self.end, dtype=np.float64))

    def save(self, path: Path) -> None:
        sid, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), sid=sid, parent=parent, start=start, end=end)

    def summarize(self, ops: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded; ``ops`` operations ran."""
        sid, parent, start, end = self.arrays()
        n = len(sid)
        dur = end - start
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - child_time
        name_id = {name: i for i, name in enumerate(self.names)}
        layer_of_name = np.array([LAYERS.index(name.split(".")[0]) for name in self.names])
        layer = layer_of_name[sid] if n else np.zeros(0, dtype=int)

        def of(name):
            return sid == name_id[name]

        def outermost(mask):
            """Spans in mask not nested in another span of mask (spans are in start order)."""
            idx = np.flatnonzero(mask)
            if not len(idx):
                return idx
            ends_before = np.maximum.accumulate(end[idx])
            keep = np.ones(len(idx), dtype=bool)
            keep[1:] = start[idx[1:]] >= ends_before[:-1]
            return idx[keep]

        def busy(mask):
            return float(dur[outermost(mask)].sum())

        def self_s(mask):
            return float(self_time[mask].sum())

        def calls(name):
            return int(np.count_nonzero(of(name)))

        def children(name, parent_name):
            mask = of(name) & nested
            return int(np.count_nonzero(sid[parent[mask]] == name_id[parent_name]))

        def per_call(total, name):
            made = calls(name)
            return total / made if made else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        in_layer = {name: layer == i for i, name in enumerate(LAYERS)}
        c = self.counts
        mul_calls = calls("algebra.mul")
        stein_calls = calls("schur.stein_solve")
        serial = outermost(in_layer["serialization"])
        serial_names = [self.names[i] for i in sid[serial]]
        reads = np.array([s.endswith("_from_obj") for s in serial_names], dtype=bool)
        return {
            "algebra.self_s": self_s(in_layer["algebra"]),
            "algebra.calls": int(np.count_nonzero(in_layer["algebra"])),
            "algebra.mul.calls": mul_calls,
            "algebra.mul.self_s": self_s(of("algebra.mul")),
            "algebra.mul.term_pairs": c["mul.term_pairs"],
            "algebra.mul.operand_terms_mean": ratio(c["mul.operand_terms"], 2 * mul_calls),
            "algebra.mul.disjoint_share": ratio(c["mul.disjoint_pairs"], c["mul.term_pairs"]),
            "algebra.invert.self_s": self_s(of("algebra.invert")),
            "algebra.kth_root.self_s": self_s(of("algebra.kth_root")),
            "matrix.self_s": self_s(in_layer["matrix"]),
            "matrix.mat_mul.calls": calls("matrix.mat_mul"),
            "matrix.mat_mul.self_s": self_s(of("matrix.mat_mul")),
            "matrix.mat_mul.entry_products": c["mat_mul.entry_products"],
            "matrix.mat_invert.busy_s": busy(of("matrix.mat_invert")),
            "matrix.mat_invert.mat_mul_per_call": per_call(
                children("matrix.mat_mul", "matrix.mat_invert"), "matrix.mat_invert"),
            "matrix.ldu_factor.busy_s": busy(of("matrix.ldu_factor")),
            "series.self_s": self_s(in_layer["series"]),
            "series.star_mul.busy_s": busy(of("series.star_mul")),
            "series.star_inverse.busy_s": busy(of("series.star_inverse")),
            "series.star_inverse.mat_mul_per_call": per_call(
                children("matrix.mat_mul", "series.star_inverse"), "series.star_inverse"),
            "series.laurent_star_mul.calls": calls("series.laurent_star_mul"),
            "series.wiener_invert.busy_s": busy(of("series.wiener_invert")),
            "realization.busy_s": busy(in_layer["realization"]),
            "realization.to_series.busy_s": busy(of("realization.to_series")),
            "toeplitz.busy_s": busy(in_layer["toeplitz"]),
            "toeplitz.extension_params.busy_s": busy(of("toeplitz.extension_params")),
            "toeplitz.verify_extension.busy_s": busy(of("toeplitz.verify_extension")),
            "schur.self_s": self_s(in_layer["schur"]),
            "schur.stein_solve.busy_s": busy(of("schur.stein_solve")),
            # P <- C*JC costs two products, each fixed-point step two more
            "schur.stein_solve.iterations": ratio(
                children("matrix.mat_mul", "schur.stein_solve") - 2 * stein_calls, 2 * stein_calls),
            # each term of a supernumber sandwich sum is mul(mul(x, term), y)
            "schur.geometric_sandwich_sum.terms": per_call(
                children("algebra.mul", "schur.geometric_sandwich_sum") / 2,
                "schur.geometric_sandwich_sum"),
            "schur.verify_share": ratio(busy(of("schur.kernel_identity_residual")),
                                        busy(of("schur.build_theta"))),
            "schur.normalization.calls": calls("schur.ThetaFunction.normalization") / ops,
            "schur.lft_apply.busy_s": busy(of("schur.lft_apply")),
            "schur.schur_algorithm.busy_s": busy(of("schur.schur_algorithm")),
            "schur.blaschke_eval.busy_s": busy(of("schur.BlaschkeFactor.eval_at")),
            "serialization.read_s": float(dur[serial[reads]].sum()),
            "serialization.write_s": float(dur[serial[~reads]].sum()),
            "serialization.bytes_out": c["bytes_out"],
            "cli.self_s": self_s(in_layer["cli"]),
        }
