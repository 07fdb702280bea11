"""Span tracing around the calls into each orderfuse module.

The tracer wraps public functions where the calling module looks them
up (``experiment.sample_field``, ``cli.monte_carlo``, ...), so nothing
inside the program changes. Each call becomes a span: name, parent,
wall start and end, and the calling thread's CPU time. Spans live in
per-thread in-memory columns and are written out once, when the run
ends; :func:`layer_metrics` derives self time and wait time from the
written file.

A span opened on a thread whose own stack is empty (a worker of the
sweep's thread pool) takes as parent the innermost span open on the
main thread, which is the ``monte_carlo`` call that is waiting for it.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter_ns, thread_time_ns

import numpy as np

import workloads

# (calling module, attribute, span name). Span names follow the metric
# names in BENCHMARK.json.
TRACE_POINTS = (
    ("cli", "monte_carlo", "experiment.monte_carlo"),
    ("cli", "sweep", "experiment.sweep"),
    ("cli", "theory_curves", "fusion.theory_curves"),
    ("experiment", "monte_carlo", "experiment.monte_carlo"),
    ("experiment", "sample_field", "field.sample_field"),
    ("experiment", "generate_observations", "field.generate_observations"),
    ("experiment", "schedule", "ordering.schedule"),
    ("experiment", "local_decisions", "fusion.local_decisions"),
    ("experiment", "run_ordered_counting", "ordering.run_ordered_counting"),
    ("experiment", "counting_rule", "fusion.counting_rule"),
    ("fusion", "integrate", "statmath.integrate"),
    ("fusion", "q_inverse", "fusion.q_inverse"),
)

_THREAD_SHIFT = 40  # span id = thread index << 40 | index within the thread
_COLUMNS = ("name", "parent", "op", "value", "t0", "t1", "cpu")


class _ThreadSpans:
    def __init__(self, index: int) -> None:
        self.base = index << _THREAD_SHIFT
        self.stack: list[int] = []
        self.cols = {c: array("q") for c in _COLUMNS}


class Tracer:
    """Records spans; ``install`` patches the trace points, ``uninstall`` undoes it.

    Create it on the main thread: pool-thread spans take their parent
    from the creating thread's stack.
    """

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._names: list[str] = []
        self._main = self._thread_spans()
        self._originals: list[tuple[object, str, object]] = []
        self.op = -1  # index of the plan operation running now

    def _thread_spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            with self._lock:
                spans = _ThreadSpans(len(self._threads))
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def name_id(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def begin(self, name_id: int) -> tuple[_ThreadSpans, int]:
        spans = self._thread_spans()
        stack = spans.stack
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._main.stack
            parent = main_stack[-1] if main_stack else -1
        cols = spans.cols
        idx = len(cols["name"])
        cols["name"].append(name_id)
        cols["parent"].append(parent)
        cols["op"].append(self.op)
        cols["value"].append(0)
        cols["t1"].append(0)
        cols["cpu"].append(thread_time_ns())
        cols["t0"].append(perf_counter_ns())
        stack.append(spans.base + idx)
        return spans, idx

    def end(self, token: tuple[_ThreadSpans, int], value: int = 0) -> None:
        t1 = perf_counter_ns()
        cpu = thread_time_ns()
        spans, idx = token
        cols = spans.cols
        cols["t1"][idx] = t1
        cols["cpu"][idx] = cpu - cols["cpu"][idx]
        cols["value"][idx] = value
        spans.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        if name == "statmath.integrate":
            def traced(f, *args, **kwargs):
                evals = 0

                def counted(x):
                    nonlocal evals
                    evals += 1
                    return f(x)

                token = self.begin(nid)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    self.end(token, evals)
        elif name == "ordering.run_ordered_counting":
            def traced(*args, **kwargs):
                token = self.begin(nid)
                k = 0
                try:
                    result = fn(*args, **kwargs)
                    k = result.k_transmitted
                    return result
                finally:
                    self.end(token, k)
        else:
            def traced(*args, **kwargs):
                token = self.begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(token)
        return traced

    def install(self) -> None:
        for module, attr, name in TRACE_POINTS:
            mod = self._modules[module]
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            mod, attr, original = self._originals.pop()
            setattr(mod, attr, original)

    def write(self, path) -> None:
        """Write every span to a compressed ``.npz`` file, one int64 array per column."""
        cols = {c: [] for c in _COLUMNS}
        thread = []
        for index, spans in enumerate(self._threads):
            for c in _COLUMNS:
                cols[c].append(np.frombuffer(spans.cols[c], dtype=np.int64))
            thread.append(np.full(len(spans.cols["name"]), index, dtype=np.int64))
        np.savez_compressed(
            path,
            names=np.array(self._names),
            thread=np.concatenate(thread),
            **{c: np.concatenate(v) for c, v in cols.items()},
        )


# ---------------------------------------------------------------- analysis

MC_FUNCTIONS = (
    "experiment.monte_carlo",
    "field.sample_field",
    "field.generate_observations",
    "ordering.schedule",
    "ordering.run_ordered_counting",
    "fusion.local_decisions",
    "fusion.counting_rule",
)


def _load(path) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    spans["id"] = (spans["thread"] << _THREAD_SHIFT) + _index_in_thread(spans["thread"])
    return spans


def _index_in_thread(thread):
    starts = np.flatnonzero(np.r_[True, thread[1:] != thread[:-1]])
    counts = np.diff(np.r_[starts, len(thread)])
    return np.arange(len(thread)) - np.repeat(starts, counts)


def _union_length(t0, t1) -> int:
    """Length of the union of the intervals [t0[i], t1[i])."""
    order = np.argsort(t0, kind="stable")
    t0, t1 = t0[order], t1[order]
    reach = np.maximum.accumulate(t1)
    new = np.r_[True, t0[1:] > reach[:-1]]
    starts = t0[new]
    ends = np.maximum.reduceat(t1, np.flatnonzero(new))
    return int((ends - starts).sum())


def self_times(spans: dict):
    """Each span's duration minus the part of it that its children cover.

    Children on the parent's own thread run one after another, so their
    durations add up; children on pool threads may overlap each other
    and are merged as intervals.
    """
    dur = spans["t1"] - spans["t0"]
    ids, parent, thread = spans["id"], spans["parent"], spans["thread"]
    has_parent = parent >= 0
    prow = np.full(len(ids), -1)
    prow[has_parent] = np.searchsorted(ids, parent[has_parent])
    covered = np.zeros(len(ids), dtype=np.int64)
    same = has_parent & (thread == thread[np.maximum(prow, 0)])
    np.add.at(covered, prow[same], dur[same])
    cross = np.flatnonzero(has_parent & ~same)
    for p in np.unique(prow[cross]):
        kids = np.flatnonzero(prow == p)
        covered[p] = _union_length(spans["t0"][kids], spans["t1"][kids])
    return dur - covered


def layer_metrics(path, ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics from a span file and the plan operations it ran.

    Monte Carlo figures are per trial of the traced simulate/sweep calls;
    theory figures are per traced ``theory`` call (one grid point).
    """
    spans = _load(path)
    selfs = self_times(spans)
    names = [str(n) for n in spans["names"]]
    name = spans["name"]
    is_theory = np.array([op["kind"] == "theory" for op in ops])[spans["op"]]
    roots = name == names.index("cli.main")
    trials_per_op = np.array([workloads.trial_count(op) for op in ops])
    trials = int(trials_per_op[spans["op"][roots & ~is_theory]].sum())
    mc_calls = int((roots & ~is_theory).sum())
    points = int((roots & is_theory).sum())
    if not (trials and points):
        raise ValueError("traced run has no Monte Carlo trial or no theory point")

    def pick(fn, theory):
        nid = names.index(fn) if fn in names else -1
        return (name == nid) & (is_theory == theory)

    m: dict[str, float] = {}
    for fn in MC_FUNCTIONS:
        sel = pick(fn, False)
        m[f"{fn}.self_us"] = selfs[sel].sum() / 1e3 / trials
        m[f"{fn}.calls_per_trial"] = sel.sum() / trials
    sel = pick("experiment.monte_carlo", False)
    wait = (spans["t1"] - spans["t0"] - spans["cpu"])[sel]
    m["experiment.monte_carlo.wait_us"] = wait.sum() / 1e3 / trials
    m["ordering.stop_k_mean"] = spans["value"][pick("ordering.run_ordered_counting", False)].mean()
    m["cli.self_ms"] = selfs[pick("cli.main", False)].sum() / 1e6 / mc_calls
    sel = pick("statmath.integrate", True)
    m["statmath.integrate.self_ms"] = selfs[sel].sum() / 1e6 / points
    m["statmath.integrate.calls_per_point"] = sel.sum() / points
    m["statmath.integrand_evals_per_point"] = spans["value"][sel].sum() / points
    m["fusion.theory_curves.self_ms"] = selfs[pick("fusion.theory_curves", True)].sum() / 1e6 / points
    m["fusion.q_inverse.calls_per_point"] = pick("fusion.q_inverse", True).sum() / points
    m["cli.self_ms_per_point"] = selfs[pick("cli.main", True)].sum() / 1e6 / points
    return {k: float(v) for k, v in m.items()}
