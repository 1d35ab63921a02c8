"""Tests of the benchmark's own arithmetic and oracles.

Run from the repository root:
  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

import oracles
import tracing
import workloads
from tracing import Span


def _span(sid, parent, start, end, thread=0, name="b"):
    return Span(sid, name, parent, 0, thread, start, end, 0.0)


def test_self_times_with_overlapping_children_on_two_threads():
    spans = [
        _span(1, -1, 0.0, 10.0, name=tracing.ROOT),
        _span(2, 1, 1.0, 5.0, thread=1),  # child on thread 1
        _span(3, 1, 3.0, 8.0, thread=2),  # overlapping child on thread 2
        _span(4, 2, 2.0, 3.0, thread=1),  # grandchild
        _span(5, 3, 7.0, 9.0, thread=2),  # sticks out of its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 10.0 - 7.0, 2: 4.0 - 1.0, 3: 5.0 - 1.0, 4: 1.0, 5: 2.0})
    # spans 2 and 3 both do their own work during [3, 5]; span 5 overlaps
    # span 1's own work during [8, 9]
    assert tracing.concurrent_time(spans) == pytest.approx(2.0 + 1.0)
    _, check = tracing.op_summary(spans)
    assert check["self_sum_s"] == pytest.approx(check["wall_s"] + check["concurrent_s"])


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert tracing.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == pytest.approx(4.0)
    assert tracing.union_length([]) == 0.0


@pytest.fixture
def fake_layer():
    """A module whose ``outer`` calls ``work`` on two threads through the
    module binding, as the experiment driver's pool does."""
    module = types.ModuleType("fake_layer")
    exec(
        "import threading, time\n"
        "def work(seconds):\n"
        "    time.sleep(seconds)\n"
        "    return seconds\n"
        "def outer():\n"
        "    threads = [threading.Thread(target=work, args=(0.05,)) for _ in range(2)]\n"
        "    for t in threads: t.start()\n"
        "    for t in threads: t.join(timeout=5)\n"
        "    return not any(t.is_alive() for t in threads)\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_tracer_attributes_pool_thread_spans_to_the_calling_span(fake_layer):
    tracer = tracing.Tracer({"fake.outer": fake_layer.outer, "fake.work": fake_layer.work})
    tracer.install()
    try:
        with tracer.op(0):
            assert fake_layer.outer()
        assert tracer.missed_bindings() == []
    finally:
        tracer.uninstall()
    spans, _, _ = tracer.take()
    by_name = {s.name: s for s in spans}
    works = [s for s in spans if s.name == "fake.work"]
    assert len(works) == 2 and len({s.thread for s in works}) == 2
    assert all(s.parent == by_name["fake.outer"].sid for s in works)
    assert by_name["fake.outer"].parent == by_name[tracing.ROOT].sid
    # sleeping threads use no CPU: their spans are almost all wait
    assert all(s.wait > 0.8 * (s.end - s.start) for s in works)
    layers, check = tracing.op_summary(spans)
    assert layers["fake.work.calls"] == 2
    assert check["concurrent_s"] > 0.02
    assert check["self_sum_s"] == pytest.approx(check["wall_s"] + check["concurrent_s"], rel=1e-9)
    assert fake_layer.work is tracer._originals["fake.work"]


def test_missed_bindings_reports_a_reference_the_wrapper_cannot_reach(fake_layer):
    table = {"work": fake_layer.work}
    tracer = tracing.Tracer({"fake.work": fake_layer.work})
    tracer.install()
    try:
        assert tracer.missed_bindings() == ["fake.work via dict"]
    finally:
        tracer.uninstall()
    assert table["work"] is fake_layer.work


def _run(name: str, op: int = 1):
    workload = workloads.WORKLOADS[name]
    inp = workload.make_input(7, op)
    return workload, inp, workload.run(inp)


def test_line_exact_oracle_accepts_the_program_and_rejects_perturbations():
    workload, config, (doc, code) = _run("line-exact")
    assert workload.check(config, (doc, code)) == []
    assert workload.check(config, (doc, 1)) != []
    doc["rows"][5]["p_out"]["coherent"] += 1e-9
    assert workload.check(config, (doc, code)) != []


def test_line_sampled_oracle_accepts_the_program_and_rejects_perturbations():
    workload, config, (doc, code) = _run("line-sampled")
    assert workload.check(config, (doc, code)) == []
    assert workload.check(config, (doc, 1)) != []
    row = doc["rows"][3]
    law = oracles.line_law(oracles.vector_from_label(3, 4), *workloads.FIXTURE_WEIGHTS)
    tol = oracles.mitigated_tolerance(law, *workloads.NOISE, workloads.SHOTS)
    row["p_out"]["hybrid"] = oracles.output_marginal(law) - 1.01 * tol
    assert workload.check(config, (doc, code)) != []


def test_line_sampled_tolerance_rejects_unmitigated_estimates():
    # without mitigation a label with p_out = 1 reads about 1 - p10
    law = oracles.line_law(oracles.vector_from_label(3, 4), *workloads.FIXTURE_WEIGHTS)
    assert oracles.output_marginal(law) == 1.0
    assert oracles.mitigated_tolerance(law, *workloads.NOISE, workloads.SHOTS) < workloads.NOISE[1]


def test_wide_node_oracle_accepts_the_program_and_rejects_perturbations():
    workload, inp, report = _run("wide-node")
    assert workload.check(inp, report) == []
    assert workload.check(inp, {**report, "p": report["p"] + 1e-10}) != []


def test_deep_exact_oracle_accepts_the_program_and_rejects_perturbations():
    workload, inp, result = _run("deep-exact")
    assert workload.check(inp, result) == []
    perturbed = type(result)(result.input_label, result.p_out + 1e-10, result.mode, None, result.classified_positive)
    assert workload.check(inp, perturbed) != []


def test_deep_inputs_keep_every_first_layer_activation_at_a_quarter():
    for op in range(20):
        inp = workloads.WORKLOADS["deep-exact"].make_input(3, op)
        assert [oracles.closed_form(inp.inp, w) for w in inp.layers[0]] == [0.25] * 8


def test_inputs_depend_only_on_seed_and_op():
    make = workloads.WORKLOADS["wide-node"].make_input
    assert make(5, 2) == make(5, 2)
    assert make(5, 2) != make(6, 2)
    assert make(5, 2) != make(5, 3)
