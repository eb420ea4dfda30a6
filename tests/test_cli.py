import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import shrinker_audit
from shrinker_audit import cli, models, phigeo, quadrature
from shrinker_audit.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REFUSED,
    EXIT_SOLVER,
    RunConfig,
    _config_from_args,
    main,
)
from shrinker_audit.errors import ConfigError


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_verify_identities_cylinder(tmp_path, capsys):
    code = main([
        "verify-identities", "--model", "cylinder:k=2,m=2",
        "--samples", "15", "--seed", "7", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "verify_identities.json")
    assert payload["all_pass"] is True
    names = {r["name"] for r in payload["reports"]}
    assert "soliton-identity:curvature" in names
    assert "deltaf-Rf:bound" in names
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_identities_audits_the_per_point_draws(tmp_path, monkeypatch):
    """The batched draw hands every audit the points of one random_point
    call per sample, so a given --seed still yields the same points."""
    from shrinker_audit import audit

    seen = {}
    for name in ("check_pointwise_identities", "gradient_f_bound_audit"):
        def spy(model, points, *args, _name=name, _audit=getattr(audit, name), **kwargs):
            seen[_name] = np.asarray(points)
            return _audit(model, points, *args, **kwargs)
        monkeypatch.setattr(audit, name, spy)
    code = main([
        "verify-identities", "--model", "sphereproduct:k=2,m=2",
        "--samples", "300", "--seed", "11", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    model = models.parse_model("sphereproduct:k=2,m=2")
    rng = np.random.default_rng(11)
    expected = np.array([models.random_point(model, rng) for _ in range(300)])
    assert sorted(seen) == ["check_pointwise_identities", "gradient_f_bound_audit"]
    for points in seen.values():
        assert points.tobytes() == expected.tobytes()


def test_verify_identities_gaussian_skips_ratio_audits(tmp_path):
    code = main([
        "verify-identities", "--model", "gaussian:n=3",
        "--samples", "10", "--seed", "1", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "verify_identities.json")
    assert any("skipped" in note for note in payload["notices"])
    assert not any(r["name"].startswith("deltaf-Rf") for r in payload["reports"])


def test_malformed_model_exits_2(tmp_path, capsys):
    code = main([
        "verify-identities", "--model", "cylinder:k=1,m=2", "--out", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sphere factor dimension must be >= 2" in err


def test_geodesic_cylinder_csv_and_bracket(tmp_path):
    code = main([
        "geodesic", "--model", "cylinder:k=2,m=2", "--c", "0.1",
        "--ry", "10", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    lines = (tmp_path / "geodesic_discrete.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 257  # header + default N+1 nodes
    payload = read_json(tmp_path / "geodesic_summary.json")
    assert 0.9 <= payload["shooting"]["C_value"] <= 1.1
    assert payload["evidence"]["J_agree"] and payload["evidence"]["C_agree"]
    counts = payload["shooting"]["minimal_evidence"]["shooting"]
    assert counts["final_miss"] < 1e-10 and counts["rk4_steps"] > 0


def test_geodesic_sphere_quarter_arc(tmp_path):
    ry = math.pi / 2.0 * math.sqrt(2.0)
    code = main([
        "geodesic", "--model", "sphere:n=2", "--c", "0.1",
        "--ry", f"{ry:.15f}", "--N", "64", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "geodesic_summary.json")
    assert abs(payload["shooting"]["C_value"] - 0.9) <= 1e-9


@pytest.mark.parametrize(
    "label, ry",
    [*(pytest.param("sphere:n=3", ry, id=ry)
       for ry in ["1e-7", "1e-9", "1e-11", "1e-12", "1e-13", "1e-14", "1e-15", "1e-16", "1e-17"]),
     # the segmented predictor stalls here, so the fine run starts from the guess
     *(pytest.param(label, "1e-12", id=f"{label}-1e-12")
       for label in ["cylinder:k=2,m=2", "sphereproduct:k=2,m=2"])],
)
def test_geodesic_sphere_tiny_radius_solvers_agree(tmp_path, label, ry):
    # the discrete solver's background start must end at y and hold unit
    # speed, and shooting's tolerance, scaled to s_bar, must make it correct
    # its start: C = 1 - c from both solvers, as R/f = 1 at O on every R > 0
    # family. Below 1e-15 the sphere angle is still nonzero, so the
    # background geodesic still moves toward y.
    code = main([
        "geodesic", "--model", label, "--c", "0.2", "--ry", ry,
        "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "geodesic_summary.json")
    assert payload["evidence"]["J_agree"] and payload["evidence"]["C_agree"]
    assert payload["shooting"]["C_value"] == pytest.approx(0.8, abs=1e-6)
    counts = payload["shooting"]["minimal_evidence"]["shooting"]
    assert counts["stop_reason"] == "converged"
    assert counts["final_miss"] < 1e-10 * float(ry)


@pytest.mark.parametrize(
    "argv, config",
    [(["scan", "--ry", "1e12"], {}), (["scan", "--ry", "1e6"], {}),
     (["audit-chain", "--ry", "5000"], {}), (["geodesic", "--ry", "1.5"], {"density": 10**8}),
     (["audit-chain", "--ry", "5"], {"density": 10**300})],
    ids=["scan-1e12", "scan-1e6", "audit-chain-5000", "geodesic-short-dense",
         "audit-chain-overflowing-density"],
)
def test_oversized_path_grid_refused_before_allocation(tmp_path, capsys, argv, config):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(argv + ["--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_REFUSED
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("refused:")
    assert "MAX_GRID_INTERVALS" in err[0]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "text, field",
    [(json.dumps({"density": 10**400}), "density"),
     (json.dumps({"density": quadrature.MAX_DENSITY + 1}), "density"),
     # more digits than Python converts: the file cannot be read at all
     ('{"density": 1' + "0" * 4400 + "}", "JSON")],
    ids=["1e400", "max-plus-one", "4401-digits"],
)
def test_density_beyond_any_float_exits_2(tmp_path, capsys, text, field):
    cfg_path = tmp_path / "dense.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main(["geodesic", "--ry", "5", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0]
    assert not out.exists()
    # the largest density a float holds is still a valid config
    RunConfig(density=quadrature.MAX_DENSITY).validate()


def _assert_refused_before_marching(tmp_path, capsys, monkeypatch, command, ry, step):
    def no_march(*args):
        raise AssertionError("marched a schedule beyond MAX_SCHEDULE_SUBSTEPS")

    monkeypatch.setattr(phigeo, "_march", no_march)
    cfg_path = tmp_path / "step.json"
    cfg_path.write_text(json.dumps({"step": step}))
    out = tmp_path / "out"
    assert main([command, "--ry", str(ry), "--config", str(cfg_path), "--out", str(out)]) \
        == EXIT_REFUSED
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("refused:")
    assert "MAX_SCHEDULE_SUBSTEPS" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["scan", "geodesic"])
def test_tiny_step_refused_before_marching(tmp_path, capsys, monkeypatch, command):
    # step 1e-7 over r_y = 10 is 1e8 RK4 substeps; a march would fail the test at once
    _assert_refused_before_marching(tmp_path, capsys, monkeypatch, command, 10, 1e-7)


@pytest.mark.parametrize("command", ["scan", "geodesic"])
def test_step_0_01_on_a_grid_past_the_bound_is_refused(tmp_path, capsys, monkeypatch, command):
    # step 0.01 splits a 1/16 interval in 7 substeps, so a grid of more than
    # MAX_SCHEDULE_SUBSTEPS // 7 = 37 449 intervals is refused at it, though
    # the default step's 4 substeps per interval admit the grid
    ry = 3000.0
    gaps = np.diff(quadrature.audit_grid(ry)[0])
    assert len(gaps) > phigeo.MAX_SCHEDULE_SUBSTEPS // 7
    assert (phigeo._substep_counts(gaps, phigeo.MAX_IVP_STEP).sum()
            <= phigeo.MAX_SCHEDULE_SUBSTEPS < phigeo._substep_counts(gaps, 0.01).sum())
    _assert_refused_before_marching(tmp_path, capsys, monkeypatch, command, ry, 0.01)


def test_substep_bound_admits_every_default_grid():
    # the largest grid audit_grid admits at the default density, at the default step
    s, _ = quadrature.audit_grid(4096.0)
    assert len(s) - 1 == quadrature.MAX_GRID_INTERVALS
    substeps = phigeo._substep_counts(np.diff(s), phigeo.MAX_IVP_STEP).sum()
    per_interval = phigeo._substep_counts(1.0 / quadrature.DEFAULT_DENSITY, phigeo.MAX_IVP_STEP)
    assert substeps == per_interval * quadrature.MAX_GRID_INTERVALS \
        <= phigeo.MAX_SCHEDULE_SUBSTEPS


@pytest.mark.parametrize("N", [quadrature.MAX_GRID_INTERVALS + 1, 10**8])
def test_discrete_grid_above_the_bound_exit_2(tmp_path, capsys, N):
    code = main(["geodesic", "--N", str(N), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "N must lie in" in capsys.readouterr().err


def test_geodesic_degenerate_endpoints_exit_2(tmp_path, capsys):
    code = main([
        "geodesic", "--model", "cylinder:k=2,m=2", "--ry", "0", "--out", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert "ry" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flags", "config"])
def test_geodesic_grid_of_more_than_one_case_exit_2(tmp_path, capsys, source):
    # geodesic solves one (c, ry), so it refuses a grid rather than solve its first cell
    if source == "flags":
        argv = ["--c", "0.1,0.5", "--ry", "5,7"]
    else:
        cfg_path = tmp_path / "grid.json"
        cfg_path.write_text(json.dumps({"c": 0.1, "ry": [5.0, 7.0]}))
        argv = ["--config", str(cfg_path)]
    code = main(["geodesic", *argv, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and "one (c, ry)" in err
    assert not (tmp_path / "out").exists()


def test_audit_chain_small_grid(tmp_path):
    code = main([
        "audit-chain", "--model", "cylinder:k=2,m=2", "--c", "0.1",
        "--ry", "5", "--N", "64", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "audit_chain.json")
    assert payload["all_ok"] is True
    cell = payload["cells"][0]
    assert [r["name"] for r in cell["reports"]] == [
        "second-variation", "combined-integral", "boundary-term",
        "weighted-ricci-integral", "radial-envelope",
    ]
    counts = cell["minimal_evidence"]["shooting"]
    cfg = RunConfig()
    s_out, _ = quadrature.audit_grid(5.0, cfg.density)
    steps_per_march = phigeo._substep_counts(np.diff(s_out), cfg.step).sum()
    assert counts["marches"] == 1 + counts["newton_iterations"] + counts["backtracks"]
    # every fine trial reuses the predictor's Jacobian: row 0 of each segment
    segments = math.ceil((len(s_out) - 1) / phigeo.SEGMENT_INTERVALS)
    assert counts["segments"] == segments
    assert counts["refreshes"] == 0
    assert counts["rows_marched"] == counts["marches"] * segments
    assert counts["rk4_steps"] == counts["marches"] * steps_per_march


def test_geodesic_and_one_cell_audit_chain_shoot_the_same_path(tmp_path):
    # both shoot, solve discretely and certify through the same code, so a
    # one-cell grid's evidence is the geodesic's, shooting counts included,
    # and its descent entry is the geodesic's discrete one
    grid = ["--model", "cylinder:k=2,m=2", "--c", "0.1", "--ry", "5"]
    assert main(["geodesic", *grid, "--out", str(tmp_path / "geo")]) == EXIT_OK
    assert main(["audit-chain", *grid, "--out", str(tmp_path / "chain")]) == EXIT_OK
    geo = read_json(tmp_path / "geo" / "geodesic_summary.json")
    (cell,) = read_json(tmp_path / "chain" / "audit_chain.json")["cells"]
    evidence = dict(cell["minimal_evidence"])
    assert evidence.pop("descent") == geo["discrete"]["minimal_evidence"]["descent"]
    assert "shooting" in evidence and "J_agree" in evidence
    assert json.dumps(evidence, sort_keys=True) == json.dumps(
        geo["shooting"]["minimal_evidence"], sort_keys=True)


def test_audit_chain_reports_each_cells_descent(tmp_path):
    # a cell's descent entry is that of a lone discrete solve of its problem
    model = models.sphere_cylinder(2, 2)
    assert main(["audit-chain", "--model", "cylinder:k=2,m=2", "--c", "0.1,0.5",
                 "--ry", "5,7", "--N", "64", "--out", str(tmp_path)]) == EXIT_OK
    cells = read_json(tmp_path / "audit_chain.json")["cells"]
    assert [(cell["c"], cell["ry"]) for cell in cells] == [(0.1, 5), (0.1, 7), (0.5, 5), (0.5, 7)]
    for cell in cells:
        alone = phigeo.minimize_action_discrete(
            model, phigeo.PhiParams(cell["c"]), models.base_point(model),
            models.canonical_target(model, cell["ry"]), N=64)
        descent = alone.minimal_evidence["descent"]
        assert set(descent) == {"backtracks", "discrete_action", "grad_norm", "grad_tol",
                                "iterations", "stop_reason"}
        assert cell["minimal_evidence"]["descent"] == json.loads(json.dumps(descent))


def test_audit_chain_rejects_c_at_least_one(tmp_path, capsys):
    code = main([
        "audit-chain", "--model", "cylinder:k=2,m=2", "--c", "1.0",
        "--ry", "5", "--out", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert "c" in capsys.readouterr().err


_CUTOFF_REFUSAL = "refused: trapezoid cutoff needs s_bar >= 2 (got 1.5)"


@pytest.mark.parametrize("argv, solved, err", [
    (["--ry", "1.5"], 0, _CUTOFF_REFUSAL),
    (["--model", "gaussian:n=3", "--ry", "5"], 0,
     "refused: gaussian:n=3: weighted curvature integral needs f(O) > 0 (degenerate: R == 0)"),
    # both refusals hold; the cutoff's comes first, as it did in the audits
    (["--model", "gaussian:n=3", "--ry", "1.5"], 0, _CUTOFF_REFUSAL),
    # the refused cell 0 is not shot; cell 1 is, and cell 0's error still comes first
    (["--ry", "1.5,10"], 1, _CUTOFF_REFUSAL),
], ids=["cutoff", "R-zero", "cutoff-before-R-zero", "cutoff-before-a-solved-cell"])
def test_audit_chain_refuses_a_cell_before_it_solves(tmp_path, capsys, monkeypatch, argv,
                                                     solved, err):
    shot = []
    batch = phigeo.solve_bvp_shooting_batch

    def spy(model, problems, **kwargs):
        shot.extend(problems)
        return batch(model, problems, **kwargs)

    monkeypatch.setattr(phigeo, "solve_bvp_shooting_batch", spy)
    out = tmp_path / "out"
    assert main(["audit-chain", "--c", "0.1", *argv, "--out", str(out)]) == EXIT_REFUSED
    assert len(shot) == solved
    captured = capsys.readouterr()
    assert captured.err == err + "\n" and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, err", [
    (["audit-chain", "--c", "0.1", "--ry", "1.5"], _CUTOFF_REFUSAL),
    (["scan", "--model", "gaussian:n=3", "--c", "0.1", "--ry", "5"],
     "refused: gaussian:n=3: scan needs f(O) > 0 (degenerate: R == 0)"),
], ids=["audit-chain", "scan"])
def test_a_grid_refused_before_it_solves_builds_no_dynamics(tmp_path, capsys, monkeypatch,
                                                            argv, err):
    built = []

    class Counted(phigeo._Dynamics):
        def __init__(self, model):
            built.append(model)
            super().__init__(model)

    monkeypatch.setattr(phigeo, "_Dynamics", Counted)
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_REFUSED
    assert built == []
    captured = capsys.readouterr()
    assert captured.err == err + "\n" and captured.out == ""


def test_scan_cylinder_and_high_c(tmp_path):
    code = main([
        "scan", "--model", "cylinder:k=2,m=2", "--c", "0.99",
        "--ry", "6", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "scan.json")
    assert payload["all_ok"] is True
    assert payload["c_hat_sup"] > 0.0


def test_scan_reports_its_notice_and_shooting_counts(tmp_path, capsys):
    code = main([
        "scan", "--model", "cylinder:k=2,m=2", "--c", "0.1",
        "--ry", "5", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "scan.json")
    (notice,) = payload["notices"]
    assert "|Rc| is constant" in notice
    assert f"NOTE  {notice}" in capsys.readouterr().out.splitlines()
    m = models.parse_model("cylinder:k=2,m=2")
    path = phigeo.solve_bvp_shooting(m, phigeo.PhiParams(0.1), models.base_point(m),
                                     models.canonical_target(m, 5.0))
    (cell,) = payload["cells"]
    assert cell["minimal_evidence"] == json.loads(json.dumps(path.minimal_evidence))


def test_scan_compact_beyond_diameter_exit_4(tmp_path, capsys):
    code = main([
        "scan", "--model", "sphereproduct:k=2,m=2", "--c", "0.1",
        "--ry", "9", "--out", str(tmp_path),
    ])
    assert code == EXIT_REFUSED
    assert "diameter" in capsys.readouterr().err


def test_byte_reproducibility(tmp_path):
    args = ["verify-identities", "--model", "cylinder:k=2,m=2",
            "--samples", "10", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    blob_a = (tmp_path / "a" / "verify_identities.json").read_bytes()
    blob_b = (tmp_path / "b" / "verify_identities.json").read_bytes()
    assert blob_a == blob_b

    scan_args = ["scan", "--model", "cylinder:k=2,m=2", "--c", "0.1", "--ry", "5"]
    assert main(scan_args + ["--out", str(tmp_path / "c")]) == EXIT_OK
    assert main(scan_args + ["--out", str(tmp_path / "d")]) == EXIT_OK
    assert (tmp_path / "c" / "scan.json").read_bytes() == (
        tmp_path / "d" / "scan.json"
    ).read_bytes()


def test_config_file_roundtrip(tmp_path, capsys):
    config = {
        "model": "cylinder:k=2,m=2",
        "c": [0.1],
        "ry": [5.0],
        "samples": 8,
        "seed": 11,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code = main([
        "verify-identities", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "out" / "verify_identities.json")
    assert payload["config"]["samples"] == 8
    assert payload["config"]["seed"] == 11
    # flags override config fields
    code = main([
        "verify-identities", "--config", str(cfg_path), "--samples", "5",
        "--out", str(tmp_path / "out2"),
    ])
    assert code == EXIT_OK
    payload = read_json(tmp_path / "out2" / "verify_identities.json")
    assert payload["config"]["samples"] == 5


@pytest.mark.parametrize("command", ["geodesic", "scan"])
def test_config_drift_tol_reaches_the_solver(tmp_path, capsys, command):
    cfg_path = tmp_path / "tight.json"
    cfg_path.write_text(json.dumps({"drift_tol": 1e-15}))
    code = main([
        command, "--model", "cylinder:k=2,m=2", "--c", "0.1", "--ry", "5",
        "--config", str(cfg_path), "--out", str(tmp_path),
    ])
    assert code == EXIT_SOLVER
    assert "drift" in capsys.readouterr().err


def test_config_file_unknown_field_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"modle": "sphere:n=3"}))
    code = main(["verify-identities", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    assert "modle" in capsys.readouterr().err


def test_config_invalid_values_exit_2(tmp_path, capsys):
    code = main([
        "verify-identities", "--model", "sphere:n=3", "--samples", "0",
        "--out", str(tmp_path),
    ])
    assert code == EXIT_CONFIG
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_samples_above_the_bound_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, source):
    def no_draw(*args, **kwargs):
        raise AssertionError("random_points was called")

    monkeypatch.setattr(cli, "random_points", no_draw)
    too_many = str(cli.MAX_SAMPLES + 1)
    if source == "flag":
        argv = ["--samples", too_many]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"samples": cli.MAX_SAMPLES + 1}))
        argv = ["--config", str(cfg_path)]
    out = tmp_path / "out"
    assert main(["verify-identities", *argv, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: samples must lie in [1, 1000000] (got {too_many})\n"
    assert captured.out == "" and not out.exists()


def _tree(root):
    """Every path under ``root`` with its bytes, None for a directory."""
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize("command", ["verify-identities", "geodesic", "audit-chain", "scan"])
def test_out_that_cannot_be_a_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                command, where):
    def no_work(*args, **kwargs):
        raise AssertionError("work began")

    monkeypatch.setattr(cli, "random_points", no_work)
    monkeypatch.setattr(phigeo, "solve_bvp_shooting_batch", no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    out = blocker if where == "file" else blocker / "reports" / "run"
    before = _tree(tmp_path)
    assert main([command, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: out {str(out)!r} cannot be a directory: "
                            f"{str(blocker)!r} exists and is not one\n")
    assert _tree(tmp_path) == before


def test_report_that_cannot_be_written_exits_2_with_its_message(tmp_path, capsys,
                                                               monkeypatch):
    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(cli.Path, "mkdir", denied)
    out = tmp_path / "out"
    assert main(["verify-identities", "--samples", "5", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: {str(out)!r}\n"
    assert not out.exists()


def test_geodesic_shooting_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a Newton budget of 0 leaves the fine run budget-exhausted
    monkeypatch.setattr(phigeo, "MAX_NEWTON", 0)
    out = tmp_path / "out"
    code = main(["geodesic", "--c", "0.1", "--ry", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_SOLVER
    assert re.fullmatch(r"solver failure: cylinder:k=2,m=2: no convergence in 0 Newton "
                        r"iterations \(best endpoint miss \d\.\d{3}e[+-]\d\d\)\n", captured.err)
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "config, argv, field",
    [
        ({"samples": "abc"}, ["verify-identities"], "samples"),
        ({"samples": True}, ["verify-identities"], "samples"),
        ({"c": "x"}, ["verify-identities"], "c"),
        ({"step": None}, ["geodesic"], "step"),
        ({"seed": 1.5}, ["verify-identities"], "seed"),
        ({"fd_h": 0.5}, ["verify-identities"], "fd_h"),
        ({}, ["geodesic", "--c", "inf"], "c"),
        ({}, ["geodesic", "--ry", "nan"], "ry"),
    ],
    ids=["samples-str", "samples-bool", "c-str", "step-null", "seed-float", "fd_h-range",
         "c-inf", "ry-nan"],
)
def test_config_type_errors_exit_2(tmp_path, capsys, config, argv, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code = main(argv + ["--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("scan", {"samples": 7, "N": 16, "max_iters": 1, "fd_h": 0.05}, "samples"),
        ("scan", {"shoot_tol": 1e-8}, "shoot_tol"),
        ("geodesic", {"audit_tol": 1e-3}, "audit_tol"),
        ("audit-chain", {"seed": 3}, "seed"),
        ("verify-identities", {"N": 16}, "N"),
    ],
    ids=["scan-four", "scan-shoot_tol", "geodesic-audit_tol", "audit-chain-seed",
         "verify-identities-N"],
)
def test_config_field_the_subcommand_does_not_read_exit_2(tmp_path, capsys, command,
                                                          config, field):
    cfg_path = tmp_path / "unread.json"
    cfg_path.write_text(json.dumps(config))
    grid = [] if command == "verify-identities" else ["--c", "0.1", "--ry", "5"]
    code = main([command, *grid, "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err and command in err
    assert not any(tmp_path.glob("*_*.json"))


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(shrinker_audit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "shrinker_audit.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "shrinker-audit" in proc.stdout


@pytest.mark.parametrize(
    "command, flag",
    [pytest.param(command, "--seed", id=command)
     for command in ("geodesic", "audit-chain", "scan")]
    + [pytest.param("verify-identities", flag, id=f"verify-identities-{flag}")
       for flag in ("--c", "--ry")],
)
def test_seed_flag_only_on_verify_identities(capsys, command, flag):
    # --seed is read only by verify-identities, --c and --ry only by the others
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "3"])
    assert exc.value.code == EXIT_CONFIG
    assert flag in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]), _JSON_VALUES,
                       max_size=4))
def test_fuzzed_config_file_is_accepted_or_a_config_error(tmp_path_factory, data):
    cfg_path = tmp_path_factory.mktemp("fuzz") / "run.json"
    cfg_path.write_text(json.dumps(data))
    try:
        cfg = _config_from_args(argparse.Namespace(config=str(cfg_path)))
    except ConfigError:
        return
    for key, value in data.items():
        if key not in ("c", "ry"):
            assert getattr(cfg, key) == value


def test_underflowing_fd_step_is_refused_not_passed(tmp_path, capsys):
    # fd_h^2 underflows to 0, so every drifted Laplacian is 0/0; a NaN
    # residual must not read as a pass
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"fd_h": 1e-300}))
    code = main(["verify-identities", "--model", "cylinder:k=2,m=2", "--samples", "5",
                 "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == EXIT_REFUSED
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("refused:") and "fd_h" in captured.err
    assert not (tmp_path / "verify_identities.json").exists()


_FD_STEPS = st.sampled_from([1e-300, 0.0999]) | st.floats(
    0.0, 0.1, exclude_min=True, exclude_max=True)


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(["gaussian:n=3", "sphere:n=3", "cylinder:k=2,m=2",
                              "sphereproduct:k=2,m=2"]),
       samples=st.integers(1, 30), seed=st.integers(-2, 2**64), fd_h=_FD_STEPS)
def test_fuzzed_verify_identities_exits_with_a_documented_code(tmp_path_factory, model,
                                                               samples, seed, fd_h):
    out_dir = tmp_path_factory.mktemp("fuzz-verify")
    cfg_path = out_dir / "run.json"
    cfg_path.write_text(json.dumps({"model": model, "samples": samples, "seed": seed,
                                    "fd_h": fd_h}))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["verify-identities", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    report = out_dir / "verify_identities.json"
    if report.exists():
        assert "NaN" not in report.read_text()


@functools.cache
def _drift_threshold():
    """A ``drift_tol`` that the c = 0.1 cells pass and the c = 0.9 cell fails.

    Shooting's drift on cylinder:k=2,m=2 at r_y = 5 grows with c and with
    the step. The threshold is the geometric mean of the c = 0.1 and c = 0.9
    drifts, measured at least 10x apart, so a change of step moves it with
    them. Returns the threshold and the failing cell's drift.
    """
    m = models.sphere_cylinder(2, 2)
    x = models.base_point(m)
    passing, failing = (
        phigeo.solve_bvp_shooting(m, phigeo.PhiParams(c), x, models.canonical_target(m, ry)).drift
        for c, ry in [(0.1, 5.0), (0.9, 5.0)])
    assert 10.0 * passing <= failing
    return math.sqrt(passing * failing), failing


DRIFT = "measured"  # stands for _drift_threshold()'s drift_tol


@pytest.mark.parametrize(
    "argv, drift_tol, code, err",
    [
        # cell 0 is refused after its solve, cell 1 before any solve
        (["scan", "--c", "0.1", "--ry", "3,1.5"], None, EXIT_REFUSED,
         "refused: cylinder:k=2,m=2: scan precondition r(y) >= max(sqrt(2n), 3A) = "
         "3.0518582978098383 fails at r(y) = 3.0"),
        # cell 0 passes; cell 1 is refused before any solve; cell 2 fails its solve
        (["scan", "--c", "0.1,0.9", "--ry", "5,1.5"], DRIFT, EXIT_REFUSED,
         "refused: cylinder:k=2,m=2: scan needs r(y) >= 2 for the cutoff (got 1.5)"),
        # cell 0 passes; cell 1 fails in shooting
        (["audit-chain", "--c", "0.1,0.9", "--ry", "5", "--N", "16"], DRIFT, EXIT_SOLVER,
         "solver failure: conserved-quantity drift {drift:.3e} exceeds {drift_tol:.1e}; "
         "step {step} is too large"),
        # cell 0 is refused before any solve; cell 3 fails its solve
        (["audit-chain", "--c", "0.1,0.9", "--ry", "1.5,5", "--N", "16"], DRIFT, EXIT_REFUSED,
         "refused: trapezoid cutoff needs s_bar >= 2 (got 1.5)"),
        # the compared values are printed in full: each is refused by a
        # rounding error that fewer digits would hide
        (["audit-chain", "--model", "sphere:n=3", "--c", "0.1", "--ry", "2"], None,
         EXIT_REFUSED, "refused: trapezoid cutoff needs s_bar >= 2 (got 1.9999999999999998)"),
        (["scan", "--model", "sphere:n=3", "--c", "0.1", "--ry", "2"], None, EXIT_REFUSED,
         "refused: sphere:n=3: scan needs r(y) >= 2 for the cutoff (got 1.9999999999999998)"),
        (["scan", "--model", "sphere:n=3", "--c", "0.5", "--ry", "3"], None, EXIT_REFUSED,
         "refused: sphere:n=3: scan precondition r(y) >= max(sqrt(2n), 3A) = "
         "3.0000000000928893 fails at r(y) = 3.0"),
    ],
    ids=["scan-precondition-then-cutoff", "scan-pass-cutoff-drift", "audit-chain-pass-drift",
         "audit-chain-cutoff-then-drift", "audit-chain-cutoff-digits", "scan-cutoff-digits",
         "scan-precondition-digits"],
)
def test_grid_errors_come_in_grid_order(tmp_path, capsys, argv, drift_tol, code, err):
    # every cell is shot before any cell is audited; the error reported is
    # still the one the first failing cell raises when the cells run in order
    if "--model" not in argv:
        argv = argv + ["--model", "cylinder:k=2,m=2"]
    cfg = []
    if drift_tol is DRIFT:
        drift_tol, drift = _drift_threshold()
        err = err.format(drift=drift, drift_tol=drift_tol, step=phigeo.MAX_IVP_STEP)
    if drift_tol is not None:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"drift_tol": drift_tol}))
        cfg = ["--config", str(cfg_path)]
    assert main(argv + [*cfg, "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.err == err + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["geodesic", "audit-chain", "scan"])
def test_overflowing_target_radius_is_refused(tmp_path, capsys, command):
    # r(y) = 1e200 overflows the distance to inf, which no cutoff grid covers;
    # the refusal is all that reaches stderr, with no numpy warning before it
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--ry", "1e200", "--out", str(out)]) == EXIT_REFUSED
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == "refused: trapezoid cutoff needs a finite s_bar (got inf)\n"
    assert captured.out == "" and not out.exists()


_REPORTS = {"geodesic": "geodesic_summary.json", "audit-chain": "audit_chain.json",
            "scan": "scan.json"}


def _run_cli(argv, out_dir):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out_dir)])
    return code, stderr.getvalue()


@settings(max_examples=12, deadline=None)
@given(command=st.sampled_from(sorted(_REPORTS)),
       model=st.sampled_from(["gaussian:n=3", "sphere:n=3", "cylinder:k=2,m=2",
                              "sphereproduct:k=2,m=2"]),
       cs=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   min_size=1, max_size=3),
       rys=st.lists(st.floats(0.0, 5.0, exclude_min=True), min_size=1, max_size=3),
       N=st.sampled_from([16, 32]))
# most drawn grids have a refused cell; these pass, so every cell is compared
@example(command="audit-chain", model="cylinder:k=2,m=2", cs=[0.1, 0.5, 0.9], rys=[4.0], N=16)
@example(command="scan", model="sphereproduct:k=2,m=2", cs=[0.3], rys=[5.0, 3.5, 4.25], N=16)
def test_fuzzed_solving_subcommands_match_their_cells_run_alone(tmp_path_factory, command,
                                                                model, cs, rys, N):
    if command == "geodesic":  # it reads one (c, r_y)
        cs, rys = cs[:1], rys[:1]
    rys = rys[: 3 // len(cs)]  # the grid is c x r_y: at most 3 cells
    cells = [(c, ry) for c in cs for ry in rys]
    out_dir = tmp_path_factory.mktemp("fuzz-grid")

    def argv(c_grid, ry_grid):
        extra = [] if command == "scan" else ["--N", str(N)]
        return [command, "--model", model, "--c", ",".join(map(repr, c_grid)),
                "--ry", ",".join(map(repr, ry_grid)), *extra]

    # a multi-cell grid shoots its cells together, so compare it cell by cell
    # with each (c, r_y) run alone
    code, err = _run_cli(argv(cs, rys), out_dir / "grid")
    alone = [_run_cli(argv([c], [ry]), out_dir / f"cell{i}") for i, (c, ry) in enumerate(cells)]
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    for path in out_dir.rglob("*.json"):
        assert "NaN" not in path.read_text()
    failed = [(c, e) for c, e in alone if c not in (0, 1)]
    if failed:
        assert (code, err) == failed[0]
        return
    assert code == max(c for c, _ in alone)
    event(f"{command} compared {len(cells)} cells")
    if command != "geodesic":
        grid_cells = read_json(out_dir / "grid" / _REPORTS[command])["cells"]
        for i, cell in enumerate(grid_cells):
            (alone_cell,) = read_json(out_dir / f"cell{i}" / _REPORTS[command])["cells"]
            assert cell == alone_cell
