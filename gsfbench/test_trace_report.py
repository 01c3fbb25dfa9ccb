"""The traced run's attribution checks accept a sound trace and reject a broken one.

    python3 -m pytest gsfbench
"""

from __future__ import annotations

import probe
import trace_report


def traced_result(**values) -> dict:
    base = {"trace.run_s": 1.0, "trace.unattributed_s": 3e-5, "trace.span_cost_s": 2e-3,
            "cli.self_s": 0.01, "trace.overhead_s": -0.05}
    base.update(values)
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in base.items()}}


def test_sound_trace_passes():
    assert trace_report.problems(traced_result()) == []


def test_time_outside_every_layer_is_rejected():
    errs = trace_report.problems(traced_result(**{"cli.self_s": 0.2}))
    assert len(errs) == 1 and "cli.self_s" in errs[0]


def test_lost_root_span_is_rejected():
    # without the cli.main span the layers' self times miss most of the run
    errs = trace_report.problems(traced_result(**{"trace.unattributed_s": 0.8}))
    assert len(errs) == 1 and "miss" in errs[0]


def test_failed_output_is_rejected():
    res = traced_result()
    res["failed"] = 1
    assert trace_report.problems(res)


def test_span_cost_scales_with_the_span_count():
    spans = [["cli.main", 0.0, 1.0, -1], ["exactla.rank_many", 0.1, 0.4, 0], ["exactla.rank_many", 0.5, 0.6, 0]]
    m = probe.summarize({"spans": spans, "counters": {}, "span_cost_s": 1e-6})
    assert m["trace.span_cost_s"] == 3e-6
    assert abs(m["exactla.self_s"] - 0.4) < 1e-12
    assert abs(m["cli.self_s"] - 0.6) < 1e-12
