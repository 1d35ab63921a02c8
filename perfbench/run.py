#!/usr/bin/env python3
"""Benchmark of qffnn through its public entry points.

Usage, from the repository root:
  python3 perfbench/run.py --workload line-exact --seed 1 --seconds 20 --trace 0

One process runs the chosen workload (see workloads.py) one op at a time in
a closed loop: the next op starts when the previous one returns.  Op inputs
are generated from --seed and the op index outside the timed region.  After
one untimed warm-up op, ops run until --seconds of wall time have passed;
every op's result is then checked by a closed-form oracle (oracles.py), and
an op that raises or fails its check counts as failed.

--trace 0 reports the end-to-end metrics:
  ops_per_s    timed ops / summed op wall time
  op_s.p50     median seconds per op (the op count is printed beside it)
               Both are at nominal host speed where the workload is scaled by
               the host-speed probe (see SpeedProbe)
  peak_rss_mb  peak resident memory of this process, which runs only the
               workload
  setup_s      median over fresh processes of `import qffnn` plus building
               the first op's inputs
--trace 1 alternates traced and untraced ops and reports the per-layer
metrics (tracing.py) as medians over the traced ops, plus the tracing
overhead as the drop in ops_per_s from the untraced ops.  It writes every
span to perfbench/out/spans-<workload>-seed<seed>.npz.

Stdout ends with two JSON lines: the run's context (machine, versions,
source) and the result {"correct", "attempted", "failed", "metrics"}.  The
same document, with per-op details, goes to perfbench/out/.  The exit code
is 0 whenever a result is printed, and non-zero without a result when the
program's sources are missing or set-up fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy, qffnn and the benchmark's own modules are imported where they are
# used: a set-up probe starts its clock before they load.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("line-exact", "line-sampled", "wide-node", "deep-exact")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# The speed of a shared host can drift by 30-70% over minutes as other
# tenants load the same cores, more than any bound.  Runs of a workload
# marked host_scaled therefore time a host-speed probe between ops, in about
# SPEED_PROBE_SHARE of the run, and report times scaled to a host on which
# the probe takes SPEED_PROBE_NOMINAL_S.  Measured times go beside the result
# as "measured".
SPEED_PROBE_SHARE = 0.2
SPEED_PROBE_NOMINAL_S = 0.1


def setup_probe(workload: str, seed: int) -> None:
    """Time `import qffnn` plus building the first op's inputs, in this fresh
    process, and print the seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.WORKLOADS[workload].make_input(seed, 0)
    print(repr(time.perf_counter() - t0))


class SpeedProbe:
    """Times the deep-exact oracle on a fixed 8-2-1 network: allocation-heavy
    interpreter work like the program's, in code the program cannot change.
    Its time tracks the host's drift far better than an arithmetic loop, and
    its working set stays under a megabyte, below every workload's peak."""

    CALLS = 20

    def __init__(self) -> None:
        import workloads

        net = workloads.WORKLOADS["deep-exact"].make_input(0, 0)
        self._args = (net.inp, [net.layers[0], net.layers[1][:2], net.layers[3]], [net.synapses[0][:2], [(0, 1)]])
        self.samples: list[float] = []

    def sample(self) -> None:
        import oracles

        t0 = time.perf_counter()
        for _ in range(self.CALLS):
            oracles.deep_output_probability(*self._args)
        self.samples.append(time.perf_counter() - t0)

    def keep_share(self, busy_s: float) -> None:
        """Sample until probing takes SPEED_PROBE_SHARE of busy plus probe time."""
        while sum(self.samples) < busy_s * SPEED_PROBE_SHARE / (1.0 - SPEED_PROBE_SHARE):
            self.sample()

    def slowdown(self) -> float:
        """Median probe time over its nominal value: above 1 on a slow host."""
        return statistics.median(self.samples) / SPEED_PROBE_NOMINAL_S


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def context() -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "qffnn").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_qffnn_lines": lines,
    }


def run_ops(workload, seed: int, seconds: float, tracer=None, probe: SpeedProbe | None = None) -> list[dict]:
    """Closed loop: op 0 warms up untimed, then ops run until ``seconds``
    have passed.  With a tracer, odd ops are traced and even ops are not;
    with a speed probe, it samples between ops."""
    import tracing

    ops = []
    busy = 0.0
    loop_start = None
    k = 0
    while loop_start is None or time.perf_counter() - loop_start < seconds:
        if k == 1:
            loop_start = time.perf_counter()
        inp = workload.make_input(seed, k)
        traced = tracer is not None and k % 2 == 1
        record = {"op": k, "timed": k > 0, "traced": traced, "error": None}
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op(k):
                    out = workload.run(inp)
            else:
                out = workload.run(inp)
        except Exception:
            out = None
            record["error"] = traceback.format_exc()
        record["seconds"] = time.perf_counter() - t0
        busy += record["seconds"]
        if probe is not None:
            probe.keep_share(busy)
        if traced:
            tracer.uninstall()
            spans, counts, seen = tracer.take()
            record["layers"], record["self_check"] = tracing.op_summary(spans)
            record["layers"].update(tracing.counter_summary(counts, seen))
            record["spans"] = spans
        record["input"], record["output"] = inp, out
        ops.append(record)
        k += 1
    return ops


def check_ops(workload, ops: list[dict]) -> int:
    failed = 0
    for record in ops:
        if record["error"] is None:
            errors = workload.check(record["input"], record["output"])
            record["error"] = "; ".join(errors) if errors else None
        if record["error"] is not None:
            failed += 1
            print(f"op {record['op']} failed: {record['error'][:2000]}", file=sys.stderr)
        del record["input"], record["output"]
    return failed


def rate(ops: list[dict]) -> float:
    return len(ops) / sum(r["seconds"] for r in ops) if ops else 0.0


def end_to_end(ops: list[dict], setup_s: float, slowdown: float) -> tuple[dict, dict]:
    """Op times are divided by the host's slowdown (1.0 for a workload that is
    not scaled; see SpeedProbe).  Set-up time is not: imports track the probe
    poorly, and set-up is not gated on its run-to-run spread."""
    timed = [r["seconds"] for r in ops if r["timed"]]
    measured_rate = rate([r for r in ops if r["timed"]])
    metrics = {
        "ops_per_s": {"value": measured_rate * slowdown, "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(timed) / slowdown, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    details = {
        "op_s": {"p50": metrics["op_s.p50"]["value"], "n": len(timed)},
        "measured": {
            "ops_per_s": measured_rate,
            "op_s": {"p50": statistics.median(timed), "min": min(timed), "max": max(timed)},
        },
        "host_slowdown": slowdown,
    }
    return metrics, details


def per_layer(workload, seed: int, tracer, ops: list[dict], t_origin: float) -> tuple[dict, dict]:
    import numpy as np
    import tracing

    traced = [r for r in ops if r["traced"]]
    untraced = [r for r in ops if r["timed"] and not r["traced"]]
    units = {"calls": "count", "self_s": "s", "wait_s": "s"}
    names = {f"{b}.{kind}": unit for b in tracing.BOUNDARIES for kind, unit in units.items()}
    names.update({c: "B" if c.endswith("bytes") else "count" for c in tracing.COUNTS})
    names.update({r: "ratio" for r in tracing.RATIOS})
    metrics = {
        name: {"value": statistics.median(r["layers"].get(name, 0.0) for r in traced), "unit": unit}
        for name, unit in names.items()
    }
    traced_rate, untraced_rate = rate(traced), rate(untraced)
    metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
    metrics["trace.overhead_share"] = {
        "value": 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0,
        "unit": "ratio",
    }

    # sanity: expected boundaries are called, no binding bypasses a wrapper,
    # and each op's self times add up to its wall time
    tracer.install()
    missed = tracer.missed_bindings()
    tracer.uninstall()
    uncalled = sorted({b for r in traced for b in workload.exercises if r["layers"].get(f"{b}.calls", 0) == 0})
    checks = [r["self_check"] for r in traced]
    residuals = [abs(c["self_sum_s"] - c["wall_s"] - c["concurrent_s"]) / c["wall_s"] for c in checks]
    sanity = {
        "uncalled_boundaries": uncalled,
        "missed_bindings": missed,
        "self_sum_max_rel_residual": max(residuals, default=0.0),
        # time with more than one span doing its own work, per op wall time
        "concurrent_share_p50": statistics.median(c["concurrent_s"] / c["wall_s"] for c in checks),
    }
    for problem in uncalled:
        print(f"sanity: {problem} was not called in every traced op", file=sys.stderr)
    for problem in missed:
        print(f"sanity: unwrapped reference {problem}", file=sys.stderr)
    if sanity["self_sum_max_rel_residual"] > 1e-6:
        print(f"sanity: self times miss op wall time by {sanity['self_sum_max_rel_residual']:.3g}", file=sys.stderr)

    span_names: dict[str, int] = {}
    threads: dict[int, int] = {}
    columns = [tracing.spans_to_arrays(r.pop("spans"), span_names, threads, t_origin) for r in traced]
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.npz"
    np.savez_compressed(
        spans_path,
        names=np.array(sorted(span_names, key=span_names.get)),
        **{key: np.concatenate([c[key] for c in columns]) for key in (columns[0] if columns else {})},
    )
    return metrics, {"sanity": sanity, "spans_file": str(spans_path.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "qffnn" / "__init__.py").is_file():
        print(f"qffnn sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    try:
        setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"set-up failed: {exc}\n{getattr(exc, 'stderr', '')}", file=sys.stderr)
        return 1

    t_origin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import tracing

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.qffnn_tracer() if args.trace else None
    probe = SpeedProbe() if args.trace == 0 and workload.host_scaled else None
    ops = run_ops(workload, args.seed, args.seconds, tracer, probe)
    failed = check_ops(workload, ops)

    if args.trace:
        metrics, details = per_layer(workload, args.seed, tracer, ops, t_origin)
    else:
        metrics, details = end_to_end(ops, setup_s, probe.slowdown() if probe else 1.0)
    timed = [r for r in ops if r["timed"]]
    details.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "ops": len(timed),
            "error_rate": failed / len(ops),
            "context": context(),
        }
    )
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result, "ops": ops}, indent=1) + "\n"
    )
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
