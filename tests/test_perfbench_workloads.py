"""perfbench/workloads.py calls cpnkit by name and keyword (dilation=,
source_dilation=, ...).  One pass of large_maps and of the in-process cli
workload must hold on every op here; otherwise a removed name or keyword
shows only as an ok_frac drop in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import cpnkit
import cpnkit.cli  # the cli workload calls cpnkit.cli.main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling inputs
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_large_maps_and_cli_passes_hold(monkeypatch, tmp_path):
    workloads = load_workloads(monkeypatch)
    large = workloads.LargeMaps(cpnkit, 0, str(tmp_path)).run_pass()
    cli = workloads.Cli(cpnkit, 0, str(tmp_path)).run_inprocess_pass()
    assert len(large) == len(workloads.LARGE_MAPS) and len(cli) == 9
    assert [(op.name, op.detail) for op in large + cli if not op.ok] == []
