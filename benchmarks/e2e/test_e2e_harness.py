"""Fast self-test of the benchmark harness (collected by the tier-1 run).

Checks the harness's own arithmetic and that every workload and metric
``BENCHMARK.json`` names is really emitted, on a ``--smoke`` survey.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import manifest  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def smoke_survey():
    return workloads.SyntheticSurvey(workloads.survey_config(smoke=True)).run()


def test_request_streams_are_a_function_of_the_seed(smoke_survey):
    first = workloads.make_requests(smoke_survey, 11, 300, workloads.WEB_MIX)
    again = workloads.make_requests(smoke_survey, 11, 300, workloads.WEB_MIX)
    other = workloads.make_requests(smoke_survey, 12, 300, workloads.WEB_MIX)
    assert repr(first) == repr(again)
    assert repr(first) != repr(other)
    kinds = {request.kind for request in first}
    assert kinds == {kind for kind, _share in workloads.WEB_MIX}


def test_percentile_rule_needs_ten_samples_beyond():
    assert harness.highest_supported_percentile(50) == 75.0     # 12.5 beyond p75, 5 beyond p90
    assert harness.highest_supported_percentile(100) == 90.0
    assert harness.highest_supported_percentile(999) == 95.0
    assert harness.highest_supported_percentile(1000) == 99.0
    assert harness.highest_supported_percentile(10) == 50.0
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile([], 99) == 0.0


def test_span_self_time_is_duration_minus_children():
    recorder = harness.SpanRecorder()
    root = recorder.add("request", 0.0, 10.0, None)
    recorder.add("parse", 1.0, 4.0, root)
    execute = recorder.add("execute", 5.0, 7.0, root)
    recorder.add("scan", 5.5, 6.0, execute)
    assert root.self_time == pytest.approx(5.0)
    assert execute.self_time == pytest.approx(1.5)
    assert harness.self_seconds(recorder.spans) == pytest.approx(
        {"request": 5.0, "parse": 3.0, "execute": 1.5, "scan": 0.5})


def test_speed_meter_scales_by_the_median_sample_around_the_interval():
    meter = harness.SpeedMeter()
    slow, reference = 2 * harness.REFERENCE_KERNEL_S, harness.REFERENCE_KERNEL_S
    meter.ended = [1.0, 2.0, 3.0, 10.0, 11.0]
    meter.seconds = [slow, slow, slow, reference, reference]
    assert meter.factor(1.9, 2.1) == pytest.approx(0.5)       # host at half speed
    assert meter.reference_seconds(1.9, 2.1) == pytest.approx(0.1)
    assert meter.factor(10.2, 10.4) == pytest.approx(1.0)
    # No sample within the window: the nearest one on each side counts.
    assert meter.factor(5.0, 6.0) == pytest.approx(
        reference / harness.median([slow, reference]))


def test_recorded_spans_nest_per_thread_and_inherit_the_request():
    recorder = harness.SpanRecorder()
    with recorder.span("off") as span:
        assert span is None                  # disabled: nothing recorded
    recorder.enabled = True
    with recorder.span("request", request=7) as outer:
        with recorder.span("layer") as inner:
            time.sleep(0.002)
    assert inner.parent is outer and inner.request == 7
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert [span.name for span in recorder.spans] == ["layer", "request"]


def test_instrument_wraps_and_restores_every_entry_point():
    import importlib
    recorder = harness.SpanRecorder()
    owners = []
    for module_name, class_name, attribute, _span in harness.WRAP_POINTS:
        owner = importlib.import_module(module_name)
        owner = getattr(owner, class_name) if class_name else owner
        owners.append((owner, attribute, getattr(owner, attribute)))
    restore = harness.instrument(recorder)
    try:
        assert all(getattr(owner, attribute) is not original
                   for owner, attribute, original in owners)
    finally:
        restore()
    assert all(getattr(owner, attribute) == original
               for owner, attribute, original in owners)


def test_benchmark_json_is_the_manifest_and_is_legal():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == manifest.benchmark_manifest()
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in committed[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"])
               for section in ("end_to_end", "per_layer") for entry in committed[section])
    assert all(len(workload["why"]) <= 200 and "\n" not in workload["why"]
               for workload in committed["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in committed["end_to_end"])
    assert any(entry == {"name": "setup_s", "unit": "s", "better": "lower",
                         "bound": entry["bound"]} for entry in committed["end_to_end"])
    assert 2 <= len(committed["workloads"]) <= 8
    assert len(committed["end_to_end"]) <= 16 and len(committed["per_layer"]) <= 128
    assert set(workloads.SPECS) == {workload["name"] for workload in committed["workloads"]}


@pytest.mark.parametrize("workload", [workload.name for workload in manifest.WORKLOADS])
def test_smoke_run_emits_every_metric(workload):
    """A traced smoke run fills both metric lists (the end-to-end ones
    are computed either way) and every operation succeeds."""
    run = workloads.Run(workload=workload, seed=11, seconds=1.0, trace=True, smoke=True,
                        started=time.perf_counter())
    restore = harness.instrument(run.recorder)
    try:
        workloads.run_workload(run)
    finally:
        restore()
    assert run.failed == 0, run.failures
    assert run.attempted > 0
    assert set(run.end_to_end) == {metric.name for metric in manifest.END_TO_END}
    assert set(run.per_layer) == {metric.name for metric in manifest.PER_LAYER}
    assert all(value > 0 for value in run.end_to_end.values())
    assert any(span.name == "request" for span in run.recorder.spans)


def test_command_line_prints_one_json_object_last():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "fig13_default",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric.name for metric in manifest.END_TO_END}
    assert all(set(entry) == {"value", "unit"} for entry in result["metrics"].values())


def test_compare_flags_regressions_and_wide_spreads(tmp_path):
    import compare

    def write(name, scale, jitter):
        runs = []
        for seed in range(10):
            wobble = 1.0 + jitter * ((seed % 5) - 2) / 2.0
            runs.append({"workload": "web_mix", "seed": seed, "trace": 0, "metrics": {
                metric.name: {"value": 100.0 * wobble * (
                    scale if metric.better == "lower" else 1.0 / scale), "unit": metric.unit}
                for metric in manifest.END_TO_END}})
        path = tmp_path / name
        path.write_text(json.dumps({"meta": {}, "runs": runs}))
        return str(path)

    steady = write("a.json", 1.0, 0.01)
    assert compare.verdict([100.0] * 10, [100.0] * 10, "lower", 0.1)[0] == "ok"
    values = compare.load_values(steady)
    assert len(values[("web_mix", "setup_s")]) == 10
    slower = compare.load_values(write("b.json", 1.5, 0.01))
    noisy = compare.load_values(write("c.json", 1.0, 0.6))
    for metric in manifest.END_TO_END:
        key = ("web_mix", metric.name)
        assert compare.verdict(values[key], values[key], metric.better, metric.bound)[0] == "ok"
        assert compare.verdict(values[key], slower[key], metric.better,
                               metric.bound)[0] == "regressed"
        assert compare.verdict(values[key], noisy[key], metric.better,
                               metric.bound)[0] == "unresolved"
