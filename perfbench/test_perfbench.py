"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from banditstop import cli  # noqa: E402
from tracing import Span  # noqa: E402


def span(i, name, start, end, parent=None, note=None):
    return Span(i, name, start, end, parent, note)


def test_self_time_subtracts_the_union_of_children_within_the_parent():
    spans = [
        span(0, "simulate.simulate_trajectory", 0.0, 10.0),
        span(1, "model.sample_batch_contexts", 1.0, 3.0, parent=0),
        span(2, "policies.select_actions", 2.0, 5.0, parent=0),  # overlaps child 1
        span(3, "estimators.ivw_combine", 9.0, 12.0, parent=0),  # runs past the parent
        span(4, "linalg.inner", 2.5, 2.7, parent=2),  # grandchild: not the parent's child
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[2] == pytest.approx(3.0 - 0.2)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(0.2)


def test_covered_length_clips_and_merges():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(-1.0, 0.5), (0.25, 0.75), (2.0, 3.0)], 0.0, 1.0) == pytest.approx(0.75)


def test_ivw_growth_compares_last_and_first_quarters_per_trajectory():
    spans = [span(0, "simulate.simulate_trajectory", 0.0, 100.0)]
    # Call t costs t seconds; 8 batches: first quarter t=1,2, last quarter t=7,8.
    start = 0.0
    for t in range(1, 9):
        spans.append(span(t, "estimators.ivw_combine", start, start + t, parent=0, note={"t": t}))
        start += t
    assert tracing.ivw_growth(spans) == pytest.approx(7.5 / 1.5)


def test_layer_metrics_shares_and_counts():
    spans = [
        span(0, "simulate.simulate_trajectory", 0.0, 4.0, note={"batches": 2}),
        span(1, "estimators.ivw_combine", 1.0, 2.0, parent=0, note={"t": 1}),
        span(2, "estimators.ivw_combine", 2.0, 3.5, parent=0, note={"t": 2, "unavailable": 1}),
        span(3, "stopping.evaluate", 3.5, 4.0, parent=0, note={"cap_hit": 1}),
    ]
    counts = tracing.Counter({"linalg.gram_checks": 5})
    m = tracing.layer_metrics(spans, counts, 0.0, 5.0)
    assert m["estimators.ivw_combine.s"] == pytest.approx(2.5)
    assert m["estimators.ivw_combine.calls"] == 2
    assert m["estimators.ivw_combine.unavailable"] == 1
    assert m["simulate.self_s"] == pytest.approx(1.0)
    assert m["simulate.batches"] == 2
    assert m["stopping.cap_hits"] == 1
    assert m["linalg.gram_checks"] == 5
    assert m["estimators.share"] == pytest.approx(0.5)
    assert m["simulate.share"] == pytest.approx(0.8)
    assert m["bounds.calibrate_tail_constant.s"] == 0.0


def test_tracer_restores_every_binding():
    import banditstop.harness as harness
    import banditstop.simulate as simulate

    before = (simulate.ivw_combine, harness.prepare)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert simulate.ivw_combine is not before[0]
    assert (simulate.ivw_combine, harness.prepare) == before


@pytest.mark.parametrize("name", ["short_many", "demo"])
def test_traced_outputs_are_bit_identical_to_untraced(name, tmp_path):
    wl = workloads.make(name, 7, tmp_path / "plain")
    wl.reset()
    plain = wl.result(wl.unit())
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workloads.make(name, 7, tmp_path / "traced")
        traced.cli_main = tracer.wrap("cli.main", traced.cli_main)
        traced.reset()
        result = traced.result(traced.unit())
    assert all(plain.invariants.values())
    assert result.digest == plain.digest
    assert tracer.spans and tracer.counts["linalg.gram_checks"] > 0


def test_merge_patch_deletes_on_null_and_merges_objects():
    base = {"a": {"b": 1, "c": 2}, "d": 3}
    assert workloads.merge_patch(base, {"a": {"c": None, "e": 4}, "d": None}) == {"a": {"b": 1, "e": 4}}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_round_trip(name):
    merged, config = workloads.load_workload_config(name)
    assert config.replications == merged["replications"]


@pytest.mark.parametrize(
    "patch",
    [
        {"sigma_mode": {"kind": "knwon"}},  # silently becomes residual
        {"stoping": {"k": 0.01}},  # unknown key, silently ignored
        {"policy": {"kind": "thompson", "sigma_prior": 1.0}},  # eps left behind, ignored
    ],
)
def test_round_trip_rejects_keys_the_package_would_drop(patch):
    base = json.loads((workloads.ROOT / "configs" / "demo.json").read_text())
    with pytest.raises(workloads.WorkloadConfigError):
        workloads.validated_config("patched", workloads.merge_patch(base, patch))


def test_reference_comparison_is_exact_for_stop_times_and_tolerant_for_floats():
    refs = {"w": {"stop_times": [3, 4], "aggregates": {"x": 1.0, "n": None}}}
    same = {"stop_times": [3, 4], "aggregates": {"x": 1.0 + 1e-9, "n": None}}
    assert workloads.reference_mismatches("w", same, refs) == []
    moved = {"stop_times": [3, 5], "aggregates": {"x": 1.001, "n": None}}
    assert workloads.reference_mismatches("w", moved, refs) == ["stop_times", "aggregates"]


@pytest.mark.xfail(strict=True, reason=workloads.DEFECT_REASON)
def test_simulate_survives_resimulation_with_fewer_than_100_draws(tmp_path):
    """Demo replication 0 with n_samples = max_attempts = 100 keeps about 6
    draws; `banditstop simulate` should still write its reports."""
    merged, _ = workloads.load_workload_config("rejection")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(merged))
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", str(config_path), "--reps", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "summary.json").is_file()
