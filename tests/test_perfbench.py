"""The benchmark's correctness gate, run as a test.

``perfbench/workloads.py`` imports public names of the program and reads
fields of its reports. A change that renames one would otherwise show up
only when the benchmark runs; here it fails the suite.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def test_workload_names_match_the_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_cli_job_passes_its_gate(tmp_path, name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(SEED)
    _, outcome, raw = workloads.run_cli_job(wl, inputs, tmp_path)
    assert raw is not None, outcome.notes
    assert outcome.ops == wl.expected_ops(inputs)
    assert outcome.failed == 0, outcome.notes
