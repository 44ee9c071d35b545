"""Self-check of the benchmark at toy sizes: every metric BENCHMARK.json
declares is emitted with its unit, a wrong program output fails the run,
and a failure the program reports is counted.  Takes about half a minute.

Run from the repository root:  python3 -m pytest -q bench
"""

import dataclasses
import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, workload, trace=0):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "toy"])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[-1])


@pytest.fixture
def decoding():
    run.import_cli()
    from codedfl import decoding
    return decoding


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(run.workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(capsys, workload, trace):
    rc, res = _run(capsys, workload, trace)
    assert rc == 0
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["sparse-encode", "certify-rounds"])
def test_wrong_decode_fails_the_run(capsys, monkeypatch, decoding, workload):
    real = decoding.decode

    def off_by_a_little(problem, rows=None):
        res = real(problem, rows)
        return decoding.DecodeResult(res.block_products * (1 + 1e-6),
                                     res.residual, res.used_workers)

    monkeypatch.setattr(decoding, "decode", off_by_a_little)
    rc, res = _run(capsys, workload)
    assert rc == 1
    assert res["correct"] is False


def test_undercounted_certificates_fail_the_run(capsys, monkeypatch,
                                               decoding):
    real = decoding.check_all_subsets

    def one_short(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report,
                                   subsets_checked=report.subsets_checked - 1)

    monkeypatch.setattr(decoding, "check_all_subsets", one_short)
    rc, res = _run(capsys, "certify-rounds")
    assert rc == 1
    assert res["correct"] is False


def test_reported_failures_are_counted_not_wrong(capsys, monkeypatch,
                                                 decoding):
    # verify exits 3 and lists every subset: the program says it failed
    monkeypatch.setattr(decoding, "check_hall_condition",
                        lambda plan, subset: decoding.MatchingResult(False, ()))
    rc, res = _run(capsys, "certify-rounds")
    assert rc == 0
    assert res["correct"] is True
    assert res["failed"] == 28        # every toy subset, C(8, 6)


def test_changing_nnz_between_passes_is_wrong():
    passes = [run.Pass(1.0, run.workloads.Findings(
        facts={"coded_nnz_mean": {("dense", "0.95"): v}}), 0)
        for v in (10.0, 10.0, 11.0)]
    assert run.check_repeatable(passes)
    assert run.check_repeatable(passes[:2]) == []


def test_without_sources_exits_nonzero_and_prints_no_result(
        capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", "certify-rounds", "--seed", "1",
                   "--seconds", "1", "--trace", "0"])
    assert rc == 2
    assert capsys.readouterr().out == ""
