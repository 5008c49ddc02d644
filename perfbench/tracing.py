"""In-memory span tracing of cqexp, installed from outside the package.

`instrument` wraps every public function and public method of the cqexp
modules, in every namespace that binds it (``from .x import f`` makes a
second binding that a wrapper in ``x`` alone would miss), plus
``numpy.linalg.eigh`` and ``numpy.linalg.eigvalsh``, which cqexp calls as
module attributes. Each call records a span: name, start, end, parent span
and op id. A few wrappers also add work counts taken from arguments or
results. The function `instrument` returns puts the original objects back,
so untraced passes run the unmodified program.

A span's layer is the cqexp module that defines the function; the numpy
eigen-kernels count as the ``linalg`` layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

KERNELS = ("eigh", "eigvalsh")
# Real-arithmetic flop model per n x n Hermitian matrix (Golub & Van Loan,
# symmetric QR): 4n^3/3 for eigenvalues only, 9n^3 with eigenvectors.
# Complex inputs count four real flops per complex one.
FLOPS_PER_N3 = {"eigvalsh": 4.0 / 3.0, "eigh": 9.0}


class Tracer:
    """Spans in parallel lists, indexed by span id; counts per op."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.op_id = -1

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, key: str, value: int = 1) -> None:
        self.counts[self.op_id][key] += value

    def peak(self, key: str, value: int) -> None:
        bucket = self.counts[self.op_id]
        bucket[key] = max(bucket[key], value)

    @property
    def size(self) -> int:
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> "Spans":
        hi = self.size if hi is None else hi
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64)
        return Spans(
            names=list(self.names),
            name=np.asarray(self.name[lo:hi], dtype=np.int64),
            start=np.asarray(self.start[lo:hi], dtype=np.int64),
            end=np.asarray(self.end[lo:hi], dtype=np.int64),
            parent=np.where(parent >= 0, parent - lo, -1),
            op=np.asarray(self.op[lo:hi], dtype=np.int64),
        )


class Spans:
    """Immutable span arrays; parents index into the same arrays (-1 = root)."""

    def __init__(self, names, name, start, end, parent, op):
        self.names, self.name, self.start, self.end = names, name, start, end
        self.parent, self.op = parent, op

    def select(self, mask: np.ndarray) -> "Spans":
        """The spans under ``mask``, which must hold every ancestor of each one."""
        new_index = np.cumsum(mask) - 1
        parent = self.parent[mask]
        return Spans(self.names, self.name[mask], self.start[mask], self.end[mask],
                     np.where(parent >= 0, new_index[parent], -1), self.op[mask])

    @property
    def seconds(self) -> np.ndarray:
        return (self.end - self.start) / 1e9

    def member(self, names) -> np.ndarray:
        wanted = set(names)
        return np.isin(self.name, [i for i, n in enumerate(self.names) if n in wanted])

    def self_seconds(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.seconds
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def under(self, member: np.ndarray) -> np.ndarray:
        """Whether some strict ancestor of each span is a member (pointer doubling)."""
        n = len(member)
        up = np.append(np.where(self.parent >= 0, self.parent, n), n)
        flag = np.append(member, False)
        seen = flag[up]
        while (up[:n] != n).any():
            seen = seen | seen[up]
            up = up[up]
        return seen[:n]

    def outermost(self, names) -> np.ndarray:
        """Spans of ``names`` not nested inside another span of ``names``."""
        member = self.member(names)
        return member & ~self.under(member)

    def layer_self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        own = self.self_seconds()
        per_name = np.bincount(self.name, weights=own, minlength=len(self.names))
        for name, sec in zip(self.names, per_name):
            out[layer_of(name)] += float(sec)
        return dict(out)


def layer_of(name: str) -> str:
    """'cqexp.analysis.ChannelAnalysis.lower_bound' -> 'analysis'; kernels -> 'linalg'."""
    parts = name.split(".")
    if parts[0] == "numpy":
        return "linalg"
    return parts[1] if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# Work counts taken at call time.


def _mats(a) -> tuple[int, int]:
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])


def _kernel_hook(kind):
    def hook(tr: Tracer, args, kwargs, out):
        a = args[0] if args else kwargs["a"]
        mats, n = _mats(a)
        tr.add("linalg.eigh_mats", mats)
        complex_factor = 4 if np.iscomplexobj(a) else 1
        tr.add("linalg.eigh_flops_computed", round(complex_factor * FLOPS_PER_N3[kind] * mats * n ** 3))

    return hook


def _maximize_hook(tr, args, kwargs, out):
    tr.add("simplex_opt.starts", int(out.start_count))
    tr.add("simplex_opt.eg_iters", int(out.iterations))
    tr.add("simplex_opt.unconverged", 0 if out.converged else 1)


def _value_rows_hook(tr, args, kwargs, out):
    tr.add("divergences.value_rows", int(np.size(out)))


def _tensor_hook(tr, args, kwargs, out):
    tr.add("linalg.tensor_bytes_computed", int(out.nbytes))


def _state_hook(tr, args, kwargs, out):
    tr.peak("coding.max_state_dim", out.shape[0])


def _types_hook(tr, args, kwargs, out):
    tr.add("typeclasses.types", len(out))


HOOKS = {
    "cqexp.simplex_opt.maximize_on_simplex": _maximize_hook,
    "cqexp.divergences.mi_values_from_powers": _value_rows_hook,
    "cqexp.linalg.tensor_all": _tensor_hook,
    "cqexp.coding.codeword_state": _state_hook,
    "cqexp.typeclasses.enumerate_types": _types_hook,
    "numpy.linalg.eigh": _kernel_hook("eigh"),
    "numpy.linalg.eigvalsh": _kernel_hook("eigvalsh"),
}


def _wrap(tr: Tracer, fn, name: str):
    nid = tr.name_id(name)
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tr.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if hook is not None:
            hook(tr, args, kwargs, out)
        return out

    return traced


def _wrap_generator_function(tr: Tracer, fn, name: str):
    """Span each step of the returned iterator, and count the items."""
    nid = tr.name_id(name)

    def steps(it):
        while True:
            i = tr.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.close(i)
            tr.add("typeclasses.sequences")
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tr.open(nid)
        try:
            it = fn(*args, **kwargs)
        finally:
            tr.close(i)
        return steps(it)

    return traced


def _cqexp_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "cqexp" or k.startswith("cqexp.")]


def instrument(tr: Tracer):
    """Install span wrappers; returns a function that removes them all."""
    wrappers: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []

    def wrapper_for(fn, name):
        w = wrappers.get(id(fn))
        if w is None:
            if name == "cqexp.typeclasses.enumerate_sequences":
                w = _wrap_generator_function(tr, fn, name)
            else:
                w = _wrap(tr, fn, name)
            wrappers[id(fn)] = w
        return w

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for mod in _cqexp_modules():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__.startswith("cqexp."):
                patch(mod, attr, wrapper_for(obj, f"{obj.__module__}.{obj.__qualname__}"))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for m_attr, m_obj in list(vars(obj).items()):
                    if not m_attr.startswith("_") and inspect.isfunction(m_obj):
                        patch(obj, m_attr, wrapper_for(m_obj, f"{obj.__module__}.{m_obj.__qualname__}"))

    for kind in KERNELS:
        patch(np.linalg, kind, _wrap(tr, getattr(np.linalg, kind), f"numpy.linalg.{kind}"))

    def remove():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return remove


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass.

SOLVES = ("cqexp.analysis.renyi_mi_channel", "cqexp.analysis.holevo_capacity")
BOUNDS = ("cqexp.analysis.ChannelAnalysis.lower_bound", "cqexp.analysis.ChannelAnalysis.upper_bound")
EIGH = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
LAYERS = ("cli", "channel_io", "channel", "analysis", "simplex_opt", "divergences", "linalg", "coding")

# (count metric, seconds metric, span names): the number of outermost spans
# of the names and their summed durations; None where a metric is not kept.
GROUPS = (
    ("analysis.inner_solves", "analysis.inner_solve_s", SOLVES),
    (None, "analysis.bound_s", BOUNDS),
    (None, "analysis.critical_rate_s", ("cqexp.analysis.ChannelAnalysis.critical_rate",)),
    ("analysis.cc_mi_calls", "analysis.cc_mi_s", ("cqexp.analysis.constant_composition_mi",)),
    ("simplex_opt.calls", "simplex_opt.maximize_s", ("cqexp.simplex_opt.maximize_on_simplex",)),
    (None, "divergences.value_s", ("cqexp.divergences.mi_values_from_powers",)),
    ("divergences.letter_powers_calls", None, ("cqexp.divergences.letter_powers",)),
    ("linalg.eigh_calls", "linalg.eigh_s", EIGH),
    ("linalg.mat_power_calls", None, ("cqexp.linalg.mat_power",)),
    ("linalg.tensor_all_calls", "linalg.tensor_all_s", ("cqexp.linalg.tensor_all",)),
    ("coding.codebooks", None, ("cqexp.coding.generate_codebook",)),
    ("coding.codeword_states", None, ("cqexp.coding.codeword_state",)),
    ("coding.ml_calls", None, ("cqexp.coding.ml_error_classical",)),
    (None, "channel_io.load_s", ("cqexp.channel_io.load_channel",)),
)

# Counts added by call hooks, summed over the ops of a pass (max for peaks).
HOOK_COUNTS = (
    "simplex_opt.starts", "simplex_opt.eg_iters", "divergences.value_rows",
    "linalg.eigh_mats", "linalg.eigh_flops_computed", "linalg.tensor_bytes_computed",
    "typeclasses.sequences", "typeclasses.types",
)


def pass_metrics(spans: Spans, op_counts: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer counts and seconds of one traced pass."""
    out: dict[str, float] = {}
    sec = spans.seconds
    for count_name, sec_name, names in GROUPS:
        top = spans.outermost(names)
        if count_name:
            out[count_name] = int(top.sum())
        if sec_name:
            out[sec_name] = float(sec[top].sum())
    for key in HOOK_COUNTS:
        out[key] = sum(c.get(key, 0) for c in op_counts)
    out["coding.max_state_dim"] = max((c.get("coding.max_state_dim", 0) for c in op_counts), default=0)

    solves = spans.outermost(SOLVES)
    bounds = spans.outermost(BOUNDS)
    in_bounds = int((solves & spans.under(spans.member(BOUNDS))).sum())
    out["analysis.solves_per_bound"] = in_bounds / bounds.sum() if bounds.any() else 0.0
    calls = out["simplex_opt.calls"]
    unconverged = sum(c.get("simplex_opt.unconverged", 0) for c in op_counts)
    out["simplex_opt.unconverged_frac"] = unconverged / calls if calls else 0.0
    eigh = out["linalg.eigh_calls"]
    out["linalg.eigh_batch_mean"] = out["linalg.eigh_mats"] / eigh if eigh else 0.0

    layers = spans.layer_self_seconds()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, 0.0)
    out["typeclasses.s"] = layers.get("typeclasses", 0.0)
    out["trace.spans"] = len(sec)
    return out


PER_LAYER_UNITS = {
    "analysis.inner_solves": "count",
    "analysis.solves_per_bound": "count",
    "analysis.inner_solve_s": "s",
    "analysis.bound_s": "s",
    "analysis.critical_rate_s": "s",
    "analysis.cc_mi_calls": "count",
    "analysis.cc_mi_s": "s",
    "simplex_opt.calls": "count",
    "simplex_opt.starts": "count",
    "simplex_opt.eg_iters": "count",
    "simplex_opt.maximize_s": "s",
    "simplex_opt.unconverged_frac": "frac",
    "divergences.value_rows": "count",
    "divergences.value_s": "s",
    "divergences.letter_powers_calls": "count",
    "linalg.eigh_calls": "count",
    "linalg.eigh_mats": "count",
    "linalg.eigh_batch_mean": "count",
    "linalg.eigh_s": "s",
    "linalg.mat_power_calls": "count",
    "linalg.eigh_flops_computed": "flop",
    "linalg.tensor_all_calls": "count",
    "linalg.tensor_bytes_computed": "B",
    "linalg.tensor_all_s": "s",
    "coding.codebooks": "count",
    "coding.codeword_states": "count",
    "coding.max_state_dim": "count",
    "coding.ml_calls": "count",
    "typeclasses.sequences": "count",
    "typeclasses.types": "count",
    "typeclasses.s": "s",
    "channel_io.load_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
}
