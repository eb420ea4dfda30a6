"""``tools/bench_trajectory.py`` on canned perfbench output and canned reports."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_trajectory",
                                               ROOT / "tools" / "bench_trajectory.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "seed": 1}


def _result(value: float, correct: bool = True) -> dict:
    """A perfbench end-to-end result whose every metric reads ``value``."""
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}
    return {"correct": correct, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit} for name, unit in units.items()}}


def _stdout(result: dict) -> str:
    return ("report: .perfbench-out/runs/x/audit_chain.json\n"
            f"# env {json.dumps(ENV, sort_keys=True)}\n"
            f"{json.dumps(result, sort_keys=True)}\n\n")


def test_parse_run_reads_the_env_line_and_the_last_line():
    env, result = bench.parse_run(_stdout(_result(0.25)))
    assert env == ENV
    assert result == _result(0.25)


def test_summarize_gives_median_and_quartiles_per_workload():
    results = [("chain", _result(v)) for v in (0.5, 0.1, 0.3, 0.2, 0.4)]
    results += [("scan", _result(0.7, correct=False))]
    summary = bench.summarize(results)
    assert set(summary) == {"chain", "scan"}
    chain = summary["chain"]
    assert chain["runs"] == 5 and chain["correct"] == [True] * 5
    wall = chain["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((0.2, 0.3, 0.4))
    assert wall["unit"] == "s" and chain["metrics"]["peak_rss_mb"]["unit"] == "MB"
    # one run: its value is the median and both quartiles
    scan = summary["scan"]
    assert scan["correct"] == [False]
    assert scan["metrics"]["setup_s"] == {"median": 0.7, "q1": 0.7, "q3": 0.7, "unit": "s"}


def test_pairs_count_lower_equal_and_higher():
    pairs = [("chain", _result(0.3), _result(0.2)), ("chain", _result(0.3), _result(0.3)),
             ("chain", _result(0.3), _result(0.4)), ("scan", _result(0.3), _result(0.1))]
    tally = bench.pair_counts(pairs)
    assert tally["chain"]["setup_s"] == {"lower": 1, "equal": 1, "higher": 1}
    assert tally["scan"]["pass_frac"] == {"lower": 1, "equal": 0, "higher": 0}


def test_run_alternates_workloads_and_pairs_and_writes_the_file(tmp_path, monkeypatch,
                                                                capsys):
    calls = []

    def fake(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        value = {"base": 0.3, "change": 0.2}[checkout.name] + seed / 100
        return bench.parse_run(_stdout(_result(value)))

    monkeypatch.setattr(bench, "run_perfbench", fake)
    monkeypatch.setattr(bench, "SEEDS", 2)
    (tmp_path / "change").mkdir()
    monkeypatch.setattr(bench, "ROOT", tmp_path / "change")
    monkeypatch.setattr(bench, "git_head", lambda checkout: f"{checkout.name}-head")
    monkeypatch.setattr(bench, "counts", lambda reference: {"src_modules": 8})
    assert bench.main(["run", "--pr", "7", "--baseline", str(tmp_path / "base")]) == 0
    # workloads alternate within a seed, and each side runs first in every other pair
    pairs = [(workload, seed) for seed in (1, 2) for workload in bench.WORKLOADS]
    assert calls == [(side, workload, seed) for k, (workload, seed) in enumerate(pairs)
                     for side in (("base", "change") if k % 2 == 0 else ("change", "base"))]
    out = tmp_path / "change" / "BENCH_7.json"
    record = json.loads(out.read_text())
    assert record["pr"] == 7 and record["head"] == "change-head"
    assert record["env"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    assert record["seeds"] == [1, 2]
    assert f"--seconds {bench.RUN_SECONDS} " in record["command"]
    assert set(record["workloads"]) == set(bench.WORKLOADS)
    assert record["counts"] == {"src_modules": 8}
    assert record["workloads"]["identities"]["runs"] == 2
    assert record["workloads"]["scan"]["metrics"]["wall_s"]["median"] == pytest.approx(0.215)
    baseline = record["baseline"]
    assert baseline["head"] == "base-head"
    assert baseline["workloads"]["chain"]["metrics"]["setup_s"]["median"] == pytest.approx(0.315)
    assert baseline["pairs"]["chain"]["setup_s"] == {"lower": 2, "equal": 0, "higher": 0}
    assert f"wrote {out}" in capsys.readouterr().out


def test_runs_use_the_benchmarks_own_run_length():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert bench.RUN_SECONDS == declared and bench.SEEDS >= 10


def test_counts_sum_every_minimal_evidence_of_a_reference_dir(tmp_path):
    shooting = {"rk4_steps": 100, "newton_iterations": 1,
                "predictor": {"rk4_steps": 20, "newton_iterations": 2}}
    cells = [{"minimal_evidence": {"shooting": shooting, "descent": {"iterations": 3}}}] * 2
    (tmp_path / "ref" / "audit-chain").mkdir(parents=True)
    (tmp_path / "ref" / "audit-chain" / "audit_chain.json").write_text(
        json.dumps({"cells": cells}))
    (tmp_path / "ref" / "refused-model").mkdir()
    (tmp_path / "ref" / "refused-model" / "stderr").write_text("refused: R == 0\n")
    (tmp_path / "src" / "shrinker_audit").mkdir(parents=True)
    (tmp_path / "src" / "shrinker_audit" / "a.py").write_text(
        '"""Doc\nstring."""\n\n# comment\nX = (1,\n     2)\n\n\ndef f():\n    """Doc."""\n'
        "    return X\n")
    (tmp_path / "README.md").write_text("one\ntwo\n")
    found = bench.counts(tmp_path / "ref", root=tmp_path)
    assert found["jobs"] == {"audit-chain": {
        "rk4_steps_fine": 200, "rk4_steps_predictor": 40, "newton_iterations_fine": 2,
        "newton_iterations_predictor": 4, "descent_iterations": 6}}
    assert found["total"] == found["jobs"]["audit-chain"]
    assert (found["src_lines"], found["src_code_lines"], found["src_modules"]) == (11, 4, 1)
    assert found["readme_lines"] == 2


def test_counts_of_the_committed_reference_set_match_its_reports():
    found = bench.counts(ROOT / "tools" / "reference")
    report = json.loads((ROOT / "tools" / "reference" / "scan" / "scan.json").read_text())
    fine = sum(cell["minimal_evidence"]["shooting"]["rk4_steps"] for cell in report["cells"])
    assert found["jobs"]["scan"]["rk4_steps_fine"] == fine
    assert set(found["jobs"]) == {"audit-chain", "geodesic", "scan"}
    assert found["src_modules"] == len(list((ROOT / "src" / "shrinker_audit").glob("*.py")))
