"""The machine report's emitter against json.dumps as its oracle."""

import copy
import json
import math
import os
import sys

import pytest

from finslergeo import cli, reports, scenario

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def oracle(report: reports.RunReport) -> str:
    body = {
        "digest": report.digest,
        "version": report.version,
        "task": report.task,
        "passed": report.passed,
        "tolerances": report.tolerances,
        "payload": report.payload,
        "tables": report.tables,
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def test_bundled_reports_match_json_dumps():
    paths = scenario.bundled_scenarios()
    assert len(paths) == 18
    for path in paths:
        report = cli.run_scenario(scenario.parse_scenario(path))
        assert reports.machine_report(report) == oracle(report), path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_match_json_dumps(workload):
    for seed in (1, 2):
        for slot, item in enumerate(workloads.generate(workload, seed)):
            report = cli.run_scenario(scenario.scenario_from_dict(copy.deepcopy(item["scenario"])))
            assert reports.machine_report(report) == oracle(report), (seed, slot)


def test_synthetic_report_matches_json_dumps():
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, -2.5e-300]
    report = reports.RunReport(
        digest="0" * 64,
        task="synthetic",
        passed=False,
        payload={
            "nan": math.nan,
            "inf": math.inf,
            "minus_inf": -math.inf,
            "minus_zero": -0.0,
            "subnormal": 5e-324,
            "big": 1e16,
            "floats": special,
            "finite": special[3:],
            "only_nan": [math.nan],
            "empty_list": [],
            "empty_dict": {},
            "text": "Zermelo–Randers σ ∂ \"quoted\" \\ tab\t",
            "Ünïcode kéy": [1, 2.0, True, False, None, -0.0],
            "mixed": [0.5, 3, True, 1e-7, False, math.inf],
            "nested": [[1.0, 2.0], [], [3, 4.5], [[math.nan], {}], {"b": [math.inf], "a": -1}],
            "int": 7,
            "bool": True,
            "none": None,
        },
        tolerances={},
        tables={"t": {"columns": ["t", "x"], "rows": [[0.0, -0.0], [1e-320, math.nan]]}, "empty": {}},
    )
    assert reports.machine_report(report) == oracle(report)
