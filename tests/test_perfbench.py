"""The benchmark's correctness gate, run as a test.

``perfbench/workloads.py`` imports public names of the program and reads
fields of its reports. A change that renames one would otherwise show up
only when the benchmark runs; here it fails the suite. The traced replays
must also reproduce the CLI's gate outputs, as ``perfbench/run.py`` checks
in a traced run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def cli_job(request, tmp_path_factory):
    wl = workloads.WORKLOADS[request.param]
    inputs = wl.inputs(SEED)
    _, outcome, raw = workloads.run_cli_job(wl, inputs, tmp_path_factory.mktemp(wl.name))
    return wl, inputs, outcome, raw


def test_workload_names_match_the_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)


def test_workload_cli_job_passes_its_gate(cli_job):
    wl, inputs, outcome, raw = cli_job
    assert raw is not None, outcome.notes
    assert outcome.ops == wl.expected_ops(inputs)
    assert outcome.failed == 0, outcome.notes


def test_workload_traced_replay_matches_the_cli_report(cli_job):
    wl, inputs, outcome, _ = cli_job
    replay = wl.replay(tracing.Tracer(), inputs)
    assert replay.outcome.failed == 0, replay.outcome.notes
    assert outcome.outputs
    assert {key: replay.outcome.outputs.get(key) for key in outcome.outputs} == outcome.outputs
