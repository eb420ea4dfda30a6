"""``tools/report_diff.py``: what it lets through and what it catches; and the
committed reference set it compares fresh runs of ``tools/reference_jobs.py`` with."""

import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_diff = _tool("report_diff")
reference_jobs = _tool("reference_jobs")

REPORT = {
    "all_ok": True,
    "notices": ["|Rc| is constant on this model"],
    "cells": [{"c": 0.1, "bound": 3.25, "flags": ["shooting"],
               "minimal_evidence": {"shooting": {"marches": 3, "final_miss": 1e-12}}}],
}
CSV = "s,p0,speed_sq\n0.0,1.5,0.97\n0.0625,1.4375,0.9700000001\n"
NON_FINITE = {"inf against 5.0": (math.inf, 5.0), "-inf against inf": (-math.inf, math.inf),
              "inf against inf": (math.inf, math.inf)}


def _write(root, report, csv_text=CSV, exit_code="0\n"):
    root.mkdir()
    (root / "scan.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    (root / "geodesic_shooting.csv").write_text(csv_text)
    (root / "exit_code").write_text(exit_code)
    return root


def _edited(**changes):
    report = json.loads(json.dumps(REPORT))
    cell = report["cells"][0]
    for key, value in changes.items():
        if key in report:
            report[key] = value
        else:
            cell[key] = value
    return report


@pytest.mark.parametrize("case, passes", [
    ("identical", True),
    ("float within rtol", True),
    ("excluded path", True),
    ("float beyond rtol", False),
    ("verdict", False),
    ("flag", False),
    ("notice", False),
    ("count in excluded path only beside a moved float", False),
    ("csv cell beyond rtol", False),
    ("exit code", False),
    ("missing file", False),
    ("json inf against 5.0", False),
    ("json -inf against inf", False),
    ("json inf against inf", True),
    ("csv inf against 5.0", False),
    ("csv -inf against inf", False),
    ("csv inf against inf", True),
])
def test_report_diff_cases(tmp_path, case, passes):
    old_report, old_csv = REPORT, CSV
    report, csv_text, exit_code = REPORT, CSV, "0\n"
    kind, _, pair = case.partition(" ")
    if pair in NON_FINITE:
        # beside a float moved within rtol, so that the file is compared value by value
        a, b = NON_FINITE[pair]
        if kind == "json":
            old_report = _edited(bound=a)
            report = _edited(bound=b, c=0.1 * (1.0 + 1e-12))
        else:
            old_csv = CSV.replace("1.5", repr(a))
            csv_text = CSV.replace("1.5", repr(b)).replace("0.9700000001", "0.97000000010000001")
    elif case == "float within rtol":
        report = _edited(bound=3.25 * (1.0 + 1e-12))
        csv_text = CSV.replace("0.9700000001", "0.97000000010000001")
    elif case == "excluded path":
        report = _edited(minimal_evidence={"shooting": {"marches": 2, "segments": 3}})
    elif case == "float beyond rtol":
        report = _edited(bound=3.25 * (1.0 + 1e-8))
    elif case == "verdict":
        report = _edited(all_ok=False)
    elif case == "flag":
        report = _edited(flags=["shooting", "stalled"])
    elif case == "notice":
        report = _edited(notices=[])
    elif case == "count in excluded path only beside a moved float":
        report = _edited(minimal_evidence={"shooting": {"marches": 2}}, c=0.2)
    elif case == "csv cell beyond rtol":
        csv_text = CSV.replace("0.9700000001", "0.9700001")
    elif case == "exit code":
        exit_code = "1\n"
    old = _write(tmp_path / "old", old_report, old_csv)
    new = _write(tmp_path / "new", report, csv_text, exit_code)
    if case == "missing file":
        (new / "geodesic_shooting.csv").unlink()
    out = io.StringIO()
    ok = report_diff.compare_dirs(old, new, 1e-9, 1e-12, ["minimal_evidence.shooting"], out)
    assert ok == passes, out.getvalue()
    if case == "identical":
        assert out.getvalue().count("identical") == 3


def test_report_diff_reports_the_largest_float_move(tmp_path):
    old = _write(tmp_path / "old", REPORT)
    new = _write(tmp_path / "new", _edited(bound=3.25 * (1.0 + 4e-10)))
    result = report_diff.compare_file(old / "scan.json", new / "scan.json", 1e-9, 1e-12)
    assert not result.mismatches
    rel, where = result.worst
    assert where == ".cells[0].bound" and rel == pytest.approx(4e-10, rel=1e-3)
    assert report_diff.main([str(old), str(new), "--rtol", "1e-10"]) == 1


def test_reference_set_holds_every_job_with_its_exit_code():
    # tools/reference is what ``python tools/reference_jobs.py tools/reference``
    # writes; CI compares a fresh run with it byte for byte
    reference = ROOT / "tools" / "reference"
    assert sorted(p.name for p in reference.iterdir()) == sorted(reference_jobs.JOBS)
    for name, (_, expected) in reference_jobs.JOBS.items():
        assert (reference / name / "exit_code").read_text() == f"{expected}\n"
