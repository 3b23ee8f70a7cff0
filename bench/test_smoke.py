"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import covfn.cli  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

TINY = {
    "estimate-tall": {**run.WORKLOADS["estimate-tall"], "n": 400, "d": 4, "N": 20},
    "estimate-wide": {**run.WORKLOADS["estimate-wide"], "n": 40, "d": 8, "N": 20},
    "simulate-coverage": {**run.WORKLOADS["simulate-coverage"], "d": 3,
                          "n": 100, "M": 5, "N": 10},
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, workloads=TINY) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def _tiny_job(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))  # set-up probes
    return run.make_job(TINY[workload], seed=5, seconds=1, trace=0,
                        workdir=str(tmp_path))


@pytest.mark.parametrize("wrong, reason", [
    (lambda v: v + 10.0, "not within"),
    # The renderer writes this as the string "nan".
    (lambda v: math.nan, "not finite"),
])
def test_wrong_estimate_is_counted_as_failed(wrong, reason, tmp_path, monkeypatch):
    real = covfn.cli.report_to_table

    def wrong_value(rep, factor):
        return real(dataclasses.replace(
            rep, functional_value=wrong(rep.functional_value)), factor)

    monkeypatch.setattr(covfn.cli, "report_to_table", wrong_value)
    result = worker.run_job(_tiny_job("estimate-wide", tmp_path, monkeypatch))
    attempted, failed = run.count_failures(result)
    assert attempted >= 2 and failed == attempted
    assert reason in result["ops"][0]["failure"]


def test_wrong_coverage_is_counted_as_failed(tmp_path, monkeypatch):
    real = covfn.cli.run_experiment

    def no_coverage(cfg):
        table = real(cfg)
        i = table.columns.index("coverage")
        rows = tuple(r[:i] + (0.0,) + r[i + 1:] for r in table.rows)
        return dataclasses.replace(table, rows=rows)

    monkeypatch.setattr(covfn.cli, "run_experiment", no_coverage)
    result = worker.run_job(_tiny_job("simulate-coverage", tmp_path, monkeypatch))
    attempted, failed = run.count_failures(result)
    assert attempted >= 2 and failed == attempted
    assert "coverage 0.0 outside" in result["ops"][0]["failure"]


@pytest.mark.parametrize("coverage, ok", [(0.95, True), (0.9, True), (1.0, False),
                                          (0.85, False), (0.7, False)])
def test_pooled_coverage_band(coverage, ok):
    spec = {"M": 20, "alpha": 0.05}
    # One op of each of these passes its own band, Binomial(20, 0.95).
    lo, hi = run.coverage_band(20, 0.05)
    assert lo <= coverage <= hi
    ops = [{"failure": None, "coverage": coverage}] * 30
    pooled = run.check_pooled(ops, spec)
    assert pooled["replicates"] == run.POOLED_REPLICATES
    assert (pooled["failure"] is None) == ok, pooled


def test_traced_layers_cover_the_op(tmp_path):
    """The named layers account for most of an op: what they leave to
    ``run_cli`` itself is small next to the op's time."""
    job = run.make_job(TINY["estimate-tall"], seed=5, seconds=1, trace=1,
                       workdir=str(tmp_path))
    job["spans_path"] = str(tmp_path / "spans.json")
    layers = run.per_layer(worker.run_job(job))
    assert layers["cli.run_cli_self_s"] < 0.25 * layers["trace.op_s"]
