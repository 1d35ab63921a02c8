"""Spans and counters recorded around the calls into each layer of qffnn.

The program imports functions by name (``from .neuron import
simulated_activation_probability``), so every module holds its own binding of
each function.  ``Tracer`` finds every binding of a traced function in every
loaded module and swaps it for a wrapper while installed; nothing in the
program changes.  A wrapper records a span (name, start, end, parent, op,
thread, wait) and may feed counters from the call's arguments and result.

Parents come from a per-thread stack.  A span opened on a thread with an
empty stack (a pool thread of the experiment driver) takes the innermost
open span of the thread that runs the op as its parent, so children of one
span can overlap in time on several threads.

Self time of a span is its duration minus the length of the union of its
children's intervals.  Wait time is its duration minus the CPU time its
thread spent inside it: time spent waiting for the interpreter lock, the
scheduler or another thread.
"""

from __future__ import annotations

import functools
import gc
import itertools
import sys
import threading
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

BOUNDARIES = (
    "experiments.run_network_experiment",
    "experiments.run_neuron_experiment",
    "network.hybrid_exact",
    "network.coherent_exact",
    "network.sampled_counts",
    "network.build_hybrid_circuit",
    "network.coherent_measured_circuit",
    "neuron.simulated_activation_probability",
    "neuron.hypergraph_sign_synthesis",
    "simulator.simulate_state",
    "simulator.reduced_density_matrix",
    "simulator.run_circuit",
    "simulator.run_circuit_exact",
    "noise.noisy_counts",
    "noise.build_calibration",
    "noise.mitigate",
)
COUNTS = (
    "simulator.gates_applied",
    "simulator.gates_applied.diag",
    "simulator.shots",
    "simulator.computed_bytes",
    "neuron.hsgs.gates",
    "neuron.node_sims",
)
RATIOS = (
    "neuron.hsgs.gate_bound_ratio",
    "neuron.node_sims.distinct_ratio",
    "neuron.hsgs.distinct_ratio",
)
DIAGONAL_KINDS = frozenset({"Z", "CZ", "MCZ"})
ROOT = "op"

Hook = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent: int
    op: int
    thread: int
    start: float
    end: float
    wait: float


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return {
        s.sid: (s.end - s.start)
        - union_length([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]])
        for s in spans
    }


def concurrent_time(spans: list[Span]) -> float:
    """Integral over time of (number of open spans with no open child - 1),
    where positive: the time that more than one span was doing its own work.
    Computed by a sweep, independently of ``self_times``; for the spans of one
    op, the self times sum to the op's wall time plus this value."""
    parent = {s.sid: s.parent for s in spans}
    # at equal times, ends (innermost first) come before starts (outermost first)
    events = sorted(
        [(s.start, 1, s.sid) for s in spans] + [(s.end, 0, -s.sid) for s in spans]
    )
    open_spans: set[int] = set()
    open_children: Counter[int] = Counter()
    leaves = 0
    last = None
    total = 0.0
    for t, is_start, key in events:
        if last is not None and leaves > 1:
            total += (leaves - 1) * (t - last)
        last = t
        sid = key if is_start else -key
        p = parent[sid]
        if is_start:
            open_spans.add(sid)
            leaves += 1
            if p in open_spans:
                open_children[p] += 1
                if open_children[p] == 1:
                    leaves -= 1
        else:
            open_spans.discard(sid)
            if open_children[sid] == 0:
                leaves -= 1
            if p in open_spans:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves += 1
    return total


class Tracer:
    """Wraps the given functions at every module binding while installed.

    ``spans`` maps a boundary name to the function whose calls it times;
    ``hooks`` feeds counters from a boundary's calls.  ``counters`` maps a
    name to (function, hook) for functions that are counted but not timed.
    """

    def __init__(
        self,
        spans: dict[str, Callable],
        hooks: dict[str, Hook] | None = None,
        counters: dict[str, tuple[Callable, Hook]] | None = None,
    ) -> None:
        hooks = hooks or {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op = -1
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.seen: dict[str, set] = defaultdict(set)
        wrappers = {name: self._span_wrapper(name, fn, hooks.get(name)) for name, fn in spans.items()}
        for name, (fn, hook) in (counters or {}).items():
            wrappers[name] = self._count_wrapper(fn, hook)
        self._originals = dict(spans)
        self._originals.update({name: fn for name, (fn, _) in (counters or {}).items()})
        self._wrappers = wrappers
        self._bindings = self._find_bindings(self._originals)

    @staticmethod
    def _find_bindings(originals: dict[str, Callable]) -> list[tuple[types.ModuleType, str, str]]:
        by_id = {id(fn): name for name, fn in originals.items()}
        found = []
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                name = by_id.get(id(value))
                if name is not None and value is originals[name]:
                    found.append((module, attr, name))
        return found

    def install(self) -> None:
        for module, attr, name in self._bindings:
            setattr(module, attr, self._wrappers[name])

    def uninstall(self) -> None:
        for module, attr, name in self._bindings:
            setattr(module, attr, self._originals[name])

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def see(self, name: str, key: Any) -> None:
        with self._lock:
            self.seen[name].add(key)

    def _span_wrapper(self, name: str, fn: Callable, hook: Hook | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._op_stack[-1] if tracer._op_stack else -1)
            sid = next(tracer._ids)
            stack.append(sid)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, parent, tracer._op, threading.get_ident(), t0, t1, (t1 - t0) - (cpu1 - cpu0))
                )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn: Callable, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one op, opened on the thread that runs it."""
        self._op = op_id
        self._op_stack = self._stack()
        sid = next(self._ids)
        self._op_stack.append(sid)
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            cpu1 = time.thread_time()
            self._op_stack.pop()
            self.spans.append(
                Span(sid, ROOT, -1, op_id, threading.get_ident(), t0, t1, (t1 - t0) - (cpu1 - cpu0))
            )

    def take(self) -> tuple[list[Span], Counter[str], dict[str, set]]:
        """Spans, counts and distinct-argument sets recorded since the last
        call; call between ops."""
        taken = self.spans, self.counts, self.seen
        self.spans, self.counts, self.seen = [], Counter(), defaultdict(set)
        return taken

    # -- sanity -------------------------------------------------------------

    def missed_bindings(self) -> list[str]:
        """References to a traced function that do not go through its
        wrapper: unwrapped module attributes, and any other object (a dispatch
        table, a default argument, a closure) holding the original.  Call
        while installed and between ops."""
        gc.collect()
        allowed = {id(self._originals)}
        for wrapper in self._wrappers.values():
            allowed.add(id(wrapper.__dict__))
            allowed.update(id(cell) for cell in wrapper.__closure__ or ())
        missed = []
        for name in list(self._originals):
            # iterating items() would leave a (name, fn) tuple referring to fn
            for ref in gc.get_referrers(self._originals[name]):
                if id(ref) in allowed or isinstance(ref, types.FrameType):
                    continue
                if isinstance(ref, dict) and "__name__" in ref:
                    owner = f"module {ref['__name__']}"
                else:
                    owner = type(ref).__name__
                missed.append(f"{name} via {owner}")
        return missed


def op_summary(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-boundary calls, self time and wait time of one op's spans, plus the
    op's wall time, self-time sum and concurrent time for the sanity check."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[s.sid]
        out[f"{s.name}.wait_s"] += s.wait
    (root,) = [s for s in spans if s.name == ROOT]
    check = {
        "wall_s": root.end - root.start,
        "self_sum_s": sum(selfs.values()),
        "concurrent_s": concurrent_time(spans),
    }
    return dict(out), check


def counter_summary(counts: Counter[str], seen: dict[str, set]) -> dict[str, float]:
    out = {name: float(counts[name]) for name in COUNTS}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["neuron.hsgs.gate_bound_ratio"] = ratio(counts["neuron.hsgs.gates"], counts["neuron.hsgs.bound"])
    out["neuron.node_sims.distinct_ratio"] = ratio(len(seen["neuron.node_sims"]), counts["neuron.node_sims"])
    out["neuron.hsgs.distinct_ratio"] = ratio(len(seen["neuron.hsgs"]), counts["neuron.hsgs.calls"])
    return out


def spans_to_arrays(spans: list[Span], names: dict[str, int], threads: dict[int, int], t0: float) -> dict[str, np.ndarray]:
    """Columnar form of spans for the spans file; times relative to ``t0``."""
    for s in spans:
        names.setdefault(s.name, len(names))
        threads.setdefault(s.thread, len(threads))
    return {
        "sid": np.array([s.sid for s in spans], dtype=np.int64),
        "name": np.array([names[s.name] for s in spans], dtype=np.int16),
        "parent": np.array([s.parent for s in spans], dtype=np.int64),
        "op": np.array([s.op for s in spans], dtype=np.int32),
        "thread": np.array([threads[s.thread] for s in spans], dtype=np.int16),
        "start": np.array([s.start - t0 for s in spans]),
        "end": np.array([s.end - t0 for s in spans]),
        "wait": np.array([s.wait for s in spans]),
    }


# -- qffnn hooks -------------------------------------------------------------


def _on_run_circuit(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("simulator.shots", args[1] if len(args) > 1 else kwargs["shots"])


def _on_hsgs(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    vec = args[0]
    tracer.add("neuron.hsgs.calls", 1)
    tracer.add("neuron.hsgs.gates", len(result[0]))
    tracer.add("neuron.hsgs.bound", vec.m - 1)
    tracer.see("neuron.hsgs", vec)


def _on_node_sim(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("neuron.node_sims", 1)
    tracer.see("neuron.node_sims", (args[0], args[1]))


def _on_gate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    amps, gate = args[0], args[1]
    tracer.add("simulator.gates_applied", 1)
    # computed from the array, not measured: rows x 2**n amplitudes x itemsize
    tracer.add("simulator.computed_bytes", amps.shape[0] * amps.shape[1] * amps.itemsize)
    if gate.kind in DIAGONAL_KINDS:
        tracer.add("simulator.gates_applied.diag", 1)


def qffnn_tracer() -> Tracer:
    """Tracer over the public functions of experiments, network, neuron,
    simulator and noise, counting gate applications in the simulator's
    kernel.  Import qffnn and the benchmark's modules first: bindings made
    after construction are not wrapped."""
    import qffnn.simulator

    spans = {}
    for boundary in BOUNDARIES:
        module, attr = boundary.split(".")
        spans[boundary] = getattr(sys.modules[f"qffnn.{module}"], attr)
    return Tracer(
        spans,
        hooks={
            "simulator.run_circuit": _on_run_circuit,
            "neuron.hypergraph_sign_synthesis": _on_hsgs,
            "neuron.simulated_activation_probability": _on_node_sim,
        },
        counters={"simulator._apply_gate_kernel": (qffnn.simulator._apply_gate_kernel, _on_gate)},
    )
