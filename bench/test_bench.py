"""Tests for the benchmark itself.  Run from the repository root::

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import compare
import percentiles
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _table(rows):
    """A span table from (id, parent, thread, start, end) rows."""
    columns = np.array(rows, dtype=np.int64)
    return {
        "id": columns[:, 0],
        "parent": columns[:, 1],
        "thread": columns[:, 2],
        "start_ns": columns[:, 3],
        "end_ns": columns[:, 4],
    }


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_only_same_thread_children():
    a, b = 1, 2
    table = _table([
        (1, 0, a, 0, 100),   # root on thread a
        (2, 1, a, 10, 40),   # child
        (3, 2, a, 20, 30),   # grandchild
        (4, 1, a, 50, 70),   # second child
        (5, 1, b, 0, 90),    # child on another thread: concurrent, not subtracted
        (6, 5, b, 10, 20),   # its own child on thread b
    ])
    assert spans.self_times(table).tolist() == [50, 20, 10, 20, 80, 10]


def test_self_time_clips_children_and_ignores_unknown_parents():
    table = _table([
        (1, 0, 7, 50, 70),
        (2, 1, 7, 65, 80),   # runs past its parent's end: only 5 ns overlap
        (3, 99, 7, 0, 10),   # parent never recorded
    ])
    assert spans.self_times(table).tolist() == [15, 15, 10]


class _Layered:
    def outer(self, num_bits):
        return self.inner(num_bits) + 1

    def inner(self, num_bits):
        return num_bits

    @contextlib.contextmanager
    def gate(self, num_bits):
        if num_bits < 0:
            raise ValueError("refused")
        yield


def test_recorder_links_parents_roots_and_threads():
    recorder = spans.SpanRecorder()
    original = _Layered.__dict__["outer"]
    bits = lambda self, num_bits: num_bits  # noqa: E731
    recorder.wrap(_Layered, "outer", "serving.service:outer", bits)
    recorder.wrap(_Layered, "inner", "core.sampler:inner", bits)
    layered = _Layered()
    assert layered.outer(64) == 65
    worker = threading.Thread(target=layered.inner, args=(8,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.uninstall()
    assert _Layered.__dict__["outer"] is original

    table = recorder.table()
    names = [recorder.names[code] for code in table["name"].tolist()]
    assert names == ["core.sampler:inner", "serving.service:outer", "core.sampler:inner"]
    inner, outer, other = (dict(zip(spans.FIELDS, row)) for row in zip(
        *(table[f].tolist() for f in spans.FIELDS)
    ))
    assert inner["parent"] == outer["id"] and inner["root"] == outer["id"]
    assert outer["parent"] == 0 and outer["root"] == outer["id"]
    assert other["parent"] == 0 and other["root"] == other["id"]
    assert other["thread"] != outer["thread"]
    assert (inner["bits"], outer["bits"], other["bits"]) == (64, 64, 8)
    summary = spans.summarize(table, recorder.names)
    assert summary["core.sampler:inner"]["calls"] == 2
    assert summary["core.sampler:inner"]["bits"] == 72


def test_enter_span_covers_a_refusal_and_reraises():
    recorder = spans.SpanRecorder()
    recorder.wrap_enter(_Layered, "gate", "serving.admission:gate")
    try:
        with pytest.raises(ValueError):
            with _Layered().gate(-1):
                pass
        with _Layered().gate(1):
            pass
    finally:
        recorder.uninstall()
    assert recorder.table()["id"].size == 2


def test_spans_written_as_jsonl(tmp_path):
    recorder = spans.SpanRecorder()
    recorder.wrap(_Layered, "inner", "core.sampler:inner")
    try:
        _Layered().inner(1)
    finally:
        recorder.uninstall()
    path = tmp_path / "w.spans.jsonl"
    recorder.write_jsonl(str(path), origin_ns=int(recorder.table()["start_ns"][0]))
    (record,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert set(record) == set(spans.FIELDS)
    assert record["name"] == "core.sampler:inner"
    assert record["start_ns"] == 0 and record["end_ns"] >= 0 and record["thread"] == 0


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, tail, expected",
    [
        (80_000, 80, 99.9),
        (8_192, 80, 99.0),
        (8_000, 80, 99.0),
        (7_999, 80, 95.0),
        (160, 80, 50.0),
        (159, 80, None),
        (1_000, 10, 99.0),
        (10_000, 10, 99.9),
    ],
)
def test_highest_supported_percentile(n, tail, expected):
    assert percentiles.supported_percentile(n, tail) == expected


def test_end_to_end_metrics_cover_the_whole_run():
    latencies = np.full(10_000, 0.001)
    latencies[:1_500] = 0.1  # a slow stretch at the start of the run
    run = workloads.Run(
        attempted=10_000, elapsed_s=20.0, latencies_s=latencies, request_bits=64,
        deadline_s=0.01, outcomes={}, pool_ones=0, pool_bits=0, unfilled=0, errors=[],
        lag_s=np.zeros(1), caller_thread=0, threads_seen=1,
    )
    metrics = workloads.end_to_end(run, [0.5, 0.7, 0.6])
    assert metrics["latency_p99_ms"] == pytest.approx(100.0)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["throughput_mbps"] == pytest.approx(10_000 * 64 / 20.0 / 1e6)
    assert metrics["on_time_ratio"] == pytest.approx(0.85)
    assert metrics["setup_s"] == 0.6
    assert {k: v["unit"] for k, v in workloads.with_units(metrics).items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    q1, median, q3 = percentiles.quartiles(values)
    assert median == 5.5
    assert percentiles.relative_spread(values) == pytest.approx((q3 - q1) / 5.5)


# -- compare ------------------------------------------------------------------

PARENT = [100.0 + i for i in range(10)]


@pytest.mark.parametrize(
    "change, better, verdict",
    [
        ([80.0 + i for i in range(10)], "lower", "improved"),
        ([80.0 + i for i in range(10)], "higher", "regressed"),
        ([120.0 + i for i in range(10)], "lower", "regressed"),
        ([101.0 + i for i in range(10)], "lower", "no worse"),
        ([99.0 + i for i in range(10)], "lower", "no worse"),
    ],
)
def test_compare_verdicts(change, better, verdict):
    assert compare.judge(PARENT, change, better, bound=0.1).verdict == verdict


def test_compare_wide_spread_is_unresolved():
    parent = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    change = [v + 5.0 for v in parent]
    judgement = compare.judge(parent, change, "lower", bound=0.1)
    assert judgement.verdict == "unresolved"
    assert judgement.win_share == 0.0


def test_compare_wide_spread_resolved_when_every_change_run_is_better():
    parent = [200.0, 300.0, 210.0, 290.0, 220.0, 280.0, 230.0, 270.0, 240.0, 260.0]
    change = [150.0 + i for i in range(10)]
    assert compare.judge(parent, change, "lower", bound=0.1).verdict == "improved"
    change = [190.0 + i for i in range(10)]
    assert compare.judge(parent, change, "lower", bound=0.1).verdict == "no worse"


def test_compare_pairs_runs_by_seed():
    def record(workload, seed, value):
        return {"workload": workload, "seed": seed, "metrics": {"m": {"value": value}}}

    parent = {("w", s): record("w", s, s) for s in (1, 2, 3)}
    change = {("w", s): record("w", s, 10 * s) for s in (3, 2, 9)}
    paired = compare.pair(parent, change, "w")
    assert [(a["seed"], b["seed"]) for a, b in paired] == [(2, 2), (3, 3)]


def test_compare_pairs_refuses_an_out_dir_with_records(tmp_path):
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "small-open-seed1.json").write_text("{}")
    with pytest.raises(SystemExit) as refused:
        compare.main(["--pairs", "1", "parent-src", "change-src", "--out", str(tmp_path)])
    assert refused.value.code == 2


# -- the benchmark contract ---------------------------------------------------


def test_benchmark_json_is_within_its_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOAD_NAMES
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert SPEC["paths"] == ["bench"]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )


def _last_json(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return _run("--seed", "1", "--smoke", "--out", str(out)), out


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return _run("--seed", "1", "--smoke", "--trace", "--out", str(out)), out


def test_smoke_names_every_end_to_end_metric(smoke):
    done, _ = smoke
    assert done.returncode == 0, done.stdout
    result = _last_json(done.stdout)
    assert result["correct"] and result["attempted"] > 0
    expected = {
        f"{w}/{m['name']}": m["unit"] for w in WORKLOAD_NAMES for m in SPEC["end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in done.stdout


def test_smoke_trace_names_every_per_layer_metric(smoke_trace):
    done, out = smoke_trace
    assert done.returncode == 0, done.stdout
    result = _last_json(done.stdout)
    expected = {
        f"{w}/{m['name']}": m["unit"] for w in WORKLOAD_NAMES for m in SPEC["per_layer"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for workload in WORKLOAD_NAMES:
        assert (out / f"{workload}.spans.jsonl").stat().st_size > 0


def test_one_workload_prints_the_driver_shape(tmp_path):
    done = _run("--seed", "2", "--smoke", "--workload", "bulk-quac", "--out", str(tmp_path))
    assert done.returncode == 0
    result = _last_json(done.stdout)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    record = json.loads((tmp_path / "bulk-quac-seed2.json").read_text())
    assert len(record["info"]["stream_sha256"]) == 64


def test_missing_sources_fail_without_a_result(tmp_path):
    done = _run("--seed", "1", "--smoke", "--src", str(tmp_path), "--out", str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
