import copy
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from finslergeo import cli, scenario

I3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def bundled(name):
    for path in scenario.bundled_scenarios():
        if path.endswith(name + ".json"):
            return path
    raise AssertionError(f"no bundled scenario named {name}")


def write_scenario(tmp_path, data, name="scen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_text_report_passes(capsys):
    code = cli.main(["--scenario", bundled("su2_biinvariant_minkowski_lie")])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed: yes" in out
    assert "wall time:" in out
    assert "task: check-minkowski-lie" in out


def test_expected_failure_exits_zero(capsys):
    code = cli.main(["--scenario", bundled("h3_euclidean_minkowski_lie")])
    out = capsys.readouterr().out
    assert code == 0
    assert "check_passed: no" in out
    assert "expected_passed: no" in out


def test_expectation_mismatch_exits_two(capsys):
    code = cli.main(["--scenario", bundled("h3_randers_berwald"), "--tol", "1.0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "passed: no" in out


def test_string_expectation_exits_one(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "task": "s-curvature",
            "model": "su2",
            "norm": {"kind": "euclidean", "a": I3},
            "params": {"y0": [0.6, -0.3, 0.5], "T": 0.05, "expect_vanishing": "false"},
        },
    )
    code = cli.main(["--scenario", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: ValidationError:" in err
    assert "expect_vanishing" in err


def test_missing_file_exits_one(capsys):
    code = cli.main(["--scenario", "/no/such/file.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ParseError:")


def test_invalid_norm_exits_one(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "task": "berwald",
            "model": "heisenberg3",
            "norm": {"kind": "randers", "a": I3, "b": [1.5, 0.0, 0.0]},
        },
    )
    code = cli.main(["--scenario", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: ValidationError:" in err
    assert "‖b‖ < 1" in err


def test_missing_required_param_exits_one(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {"task": "integrate-geodesic", "model": "su2", "norm": {"kind": "euclidean", "a": I3}},
    )
    code = cli.main(["--scenario", path])
    err = capsys.readouterr().err
    assert code == 1
    assert "y0" in err


@pytest.mark.parametrize(
    "task, params, key",
    [
        ("integrate-geodesic", {"y0": [0.6, -0.3, 0.5], "T": None}, "'T'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "stride": "2"}, "'stride'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "stride": 2.0}, "'stride'"),
        ("check-homogeneous", {"X": [1.0, 0.0, 0.0], "step": True}, "'step'"),
        ("berwald", {"samples": "8"}, "'samples'"),
        # out of range, or not declared by the task
        ("geodesic-vectors", {"samples": -5}, "'samples'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "stride": -1}, "'stride'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "stride": 0}, "'stride'"),
        ("berwald", {"samples": 0}, "'samples'"),
        ("check-minkowski-lie", {"samples": 0}, "'samples'"),
        ("integrate-geodesic", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "tol": -1}, "'tol'"),
        ("integrate-geodesic", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "stide": 2}, "'stide'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "dt": 1.0e-3}, "'dt'"),
        # one direction reads every metric as Berwald
        ("berwald", {"samples": 1}, "'samples'"),
        # a horizon that is not a whole number of steps
        ("integrate-geodesic", {"y0": [0.6, -0.3, 0.5], "T": 1.0, "step": 0.3}, "'T'"),
        ("check-homogeneous", {"X": [1.0, 0.0, 0.0], "T": 0.01, "step": 0.03}, "'T'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.05, "step": 0.02}, "'T'"),
        # an int beyond the float range
        ("check-homogeneous", {"X": [1.0, 0.0, 0.0], "T": 10**400}, "'T'"),
        # a stride that does not divide the steps: a one-row profile under
        # the default stride 50, or one that ends at t = 0.009 short of T
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.01, "step": 1.0e-3}, "'stride'"),
        ("s-curvature", {"y0": [0.6, -0.3, 0.5], "T": 0.01, "step": 1.0e-3, "stride": 3}, "'stride'"),
    ],
)
def test_mistyped_number_exits_one(tmp_path, capsys, task, params, key):
    path = write_scenario(
        tmp_path,
        {"task": task, "model": "su2", "norm": {"kind": "euclidean", "a": I3}, "params": params},
    )
    code = cli.main(["--scenario", path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ValidationError:")
    assert key in err


def with_entry(matrix, row, col, value):
    out = [list(r) for r in matrix]
    out[row][col] = value
    return out


@pytest.mark.parametrize(
    "data",
    [
        # a NaN or infinite entry read as a failed check, so an expected
        # failure exited 0; a string or boolean entry was cast to a number
        {"task": "check-minkowski-lie", "model": "su2",
         "norm": {"kind": "euclidean", "a": with_entry(I3, 0, 0, float("nan"))},
         "params": {"expect_passed": False}},
        {"task": "check-minkowski-lie", "model": {"dim": 3, "structure_constants": [[1, 2, 3, float("nan")]]},
         "norm": {"kind": "euclidean", "a": I3}, "params": {"expect_passed": False}},
        {"task": "check-nat-reductive", "model": "su2",
         "norm": {"kind": "euclidean", "a": with_entry(I3, 0, 0, float("inf"))}},
        {"task": "berwald", "model": "heisenberg3",
         "norm": {"kind": "randers", "a": I3, "b": [float("nan"), 0.0, 0.0]},
         "params": {"expect_berwald": False}},
        {"task": "check-minkowski-lie", "model": "su2",
         "norm": {"kind": "euclidean", "a": with_entry(I3, 0, 0, "1")}},
        {"task": "check-minkowski-lie", "model": "su2",
         "norm": {"kind": "euclidean", "a": with_entry(I3, 0, 0, True)}},
        {"task": "check-minkowski-lie", "model": {"dim": 3, "structure_constants": [[1, 2, 3, "1"]]},
         "norm": {"kind": "euclidean", "a": I3}},
        {"task": "check-minkowski-lie", "model": {"dim": 3, "structure_constants": [[True, 2, 3, 1.0]]},
         "norm": {"kind": "euclidean", "a": I3}},
        # an int beyond the float range raised an untyped OverflowError
        {"task": "check-minkowski-lie", "model": "su2",
         "norm": {"kind": "euclidean", "a": with_entry(I3, 0, 0, 10**400)}},
    ],
    ids=["a-nan", "c-nan", "a-infinity", "b-nan", "a-string", "a-true", "c-string", "c-true-index",
         "a-huge-int"],
)
def test_norm_and_structure_constants_must_be_finite_numbers(tmp_path, capsys, data):
    code = cli.main(["--scenario", write_scenario(tmp_path, data)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValidationError:")


def test_geodesic_vectors_split_without_seed_set_exits_one(tmp_path, capsys):
    # su(2) + R^2 with m the whole 5-dim algebra: the seeds cover dim m 2..4
    data = {
        "task": "geodesic-vectors",
        "model": {"dim": 5, "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]},
        "norm": {"kind": "euclidean", "a": np.eye(5).tolist()},
    }
    code = cli.main(["--scenario", write_scenario(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ValidationError:") and "dim m 5" in err


@pytest.mark.parametrize(
    "task, params, verdict",
    [
        ("check-nat-reductive", {"expect_passed": True}, "check_passed"),
        ("geodesic-vectors", {"samples": 256, "expect_all_geodesic": True}, "all_sampled_vectors_geodesic"),
    ],
)
def test_reductive_split_exits_zero(tmp_path, capsys, task, params, verdict):
    # SU(2)/U(1): m = {e1, e2}, h = {e3}, the round 2-sphere
    path = write_scenario(
        tmp_path,
        {
            "task": task,
            "model": "su2",
            "norm": {"kind": "euclidean", "a": [[1.0, 0.0], [0.0, 1.0]]},
            "m_indices": [1, 2],
            "h_indices": [3],
            "params": params,
        },
    )
    code = cli.main(["--scenario", path, "--format", "machine"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["payload"][verdict] is True


def test_split_norm_not_ad_h_invariant_exits_one(tmp_path, capsys):
    # SU(2)/U(1) with a = diag(1, 2) on m: the structure checks would pass
    # (c[m, m, m] = 0), but no homogeneous metric on S² has this norm
    path = write_scenario(
        tmp_path,
        {
            "task": "check-nat-reductive",
            "model": "su2",
            "norm": {"kind": "euclidean", "a": [[1.0, 0.0], [0.0, 2.0]]},
            "m_indices": [1, 2],
            "h_indices": [3],
        },
    )
    code = cli.main(["--scenario", path, "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ValidationError: scenario: the norm on m is not Ad(H)-invariant")
    assert "at Z = e3" in captured.err


def test_machine_bytes_stable(tmp_path, capsys):
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    scen = bundled("h3_euclidean_geodesic_vectors")
    assert cli.main(["--scenario", scen, "--format", "machine", "--out", out_a]) == 0
    assert cli.main(["--scenario", scen, "--format", "machine", "--out", out_b]) == 0
    capsys.readouterr()
    body_a = open(out_a, "rb").read()
    body_b = open(out_b, "rb").read()
    assert body_a == body_b
    assert b"wall" not in body_a


def test_out_file_keeps_stdout_quiet(tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    code = cli.main(["--scenario", bundled("su2_biinvariant_nat_reductive"), "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "passed: yes" in open(out, encoding="utf-8").read()


def test_seed_override_changes_digest(capsys):
    scen = bundled("su2_biinvariant_nat_reductive")
    assert cli.main(["--scenario", scen, "--format", "machine"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert cli.main(["--scenario", scen, "--format", "machine", "--seed", "7"]) == 0
    moved = json.loads(capsys.readouterr().out)
    assert base["digest"] != moved["digest"]
    assert cli.main(["--scenario", scen, "--format", "machine", "--seed", "0"]) == 0
    same = json.loads(capsys.readouterr().out)
    assert same["digest"] == base["digest"]
    assert cli.main(["--scenario", scen, "--seed", "-1"]) == 1
    assert "'seed'" in capsys.readouterr().err
    # numpy's RandomState raised an untyped ValueError for this seed
    assert cli.main(["--scenario", scen, "--seed", str(2**32)]) == 1
    assert capsys.readouterr().err.startswith("error: ParseError:")


def test_tol_override_lands_in_report(capsys):
    scen = bundled("su2_biinvariant_minkowski_lie")
    assert cli.main(["--scenario", scen, "--format", "machine"]) == 0
    base = json.loads(capsys.readouterr().out)
    assert cli.main(["--scenario", scen, "--format", "machine", "--tol", "1e-4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerances"]["residual"] == 1.0e-4
    assert report["digest"] != base["digest"]
    for bad in ("-1", "inf"):
        assert cli.main(["--scenario", scen, "--tol", bad]) == 1
        err = capsys.readouterr().err
        assert "ValidationError" in err and "'tol'" in err


def test_trajectory_table_format(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "task": "integrate-geodesic",
            "model": "su2",
            "norm": {"kind": "euclidean", "a": I3},
            "params": {"y0": [0.6, -0.3, 0.5], "T": 0.05, "step": 1.0e-3},
        },
    )
    code = cli.main(["--scenario", path])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    header = lines.index("trajectory:")
    assert lines[header + 1] == "# t x1 x2 x3 y1 y2 y3 F"
    rows = lines[header + 2:]
    assert len(rows) == 51
    cell = re.compile(r"-?\d\.\d{16}e[+-]\d{2}")
    for row in rows:
        cells = row.split(" ")
        assert len(cells) == 8
        for value in cells:
            assert cell.fullmatch(value), value


def test_scurvature_profile_table(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "task": "s-curvature",
            "model": "su2",
            "norm": {"kind": "euclidean", "a": I3},
            "params": {"y0": [0.6, -0.3, 0.5], "T": 0.2, "step": 1.0e-3, "stride": 50,
                       "tol": 1.0e-4},
        },
    )
    assert cli.main(["--scenario", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    header = lines.index("distortion_profile:")
    assert lines[header + 1] == "# t tau S sigma_error"
    assert len(lines[header + 2:]) == 5


def _derived_verdict(task, payload, tol):
    """The report's verdict recomputed from its payload and tolerances alone."""
    if task == "geodesic-vectors":
        passed = len(payload["representatives"]) > 0 and payload["max_representative_residual"] <= tol["residual"]
        if "expected_all_geodesic" in payload:
            passed = passed and payload["all_sampled_vectors_geodesic"] == payload["expected_all_geodesic"]
        if "expected_branches" in payload:
            passed = passed and payload["branch_count"] == payload["expected_branches"]
        return passed
    if task in ("check-nat-reductive", "check-minkowski-lie", "check-homogeneous"):
        metric, key = ("sup_distance", "sup_distance") if task == "check-homogeneous" else ("max_residual", "residual")
        assert payload["check_passed"] == (payload[metric] <= tol[key])
        return payload["check_passed"] == payload["expected_passed"]
    if task == "berwald":
        assert payload["is_berwald"] == (payload["max_parallelogram_defect"] <= tol["parallelogram_defect"])
        return payload["is_berwald"] == payload["expected_berwald"]
    if task == "s-curvature":
        vanishes = payload["max_abs_s"] <= tol["abs_s"] and payload["tau_drift"] <= tol["tau_drift"]
        return vanishes == payload["expected_vanishing"]
    assert task == "integrate-geodesic"
    return payload["max_relative_F_drift"] <= tol["relative_F_drift"]


def test_every_bundled_scenario_exits_zero(capsys):
    # and each verdict follows from its machine report alone
    tasks = set()
    for path in scenario.bundled_scenarios():
        code = cli.main(["--scenario", path, "--format", "machine"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, path
        assert report["passed"] is True, path
        tasks.add(report["task"])
        payload = report["payload"]
        assert report["passed"] == _derived_verdict(report["task"], payload, report["tolerances"]), path
        if report["task"] == "s-curvature":
            assert_s_at_start_is_row_zero(report)
    assert tasks == set(scenario.TASKS)


# the measurement each check's verdict flag compares with --tol
CHECK_METRICS = {
    "check-nat-reductive": ("max_residual", "check_passed"),
    "check-minkowski-lie": ("max_residual", "check_passed"),
    "check-homogeneous": ("sup_distance", "check_passed"),
    "berwald": ("max_parallelogram_defect", "is_berwald"),
}


def test_check_verdicts_flip_at_the_measured_value(capsys):
    # metric <= tol: the flag holds at tol = metric and fails one ulp below
    checked = 0
    for path in scenario.bundled_scenarios():
        if scenario.load_scenario(path)["task"] not in CHECK_METRICS:
            continue
        cli.main(["--scenario", path, "--format", "machine"])
        report = json.loads(capsys.readouterr().out)
        metric, flag = CHECK_METRICS[report["task"]]
        value = report["payload"][metric]
        for tol, holds in ((value, True), (np.nextafter(value, 0.0), False)):
            cli.main(["--scenario", path, "--format", "machine", "--tol", repr(float(tol))])
            assert json.loads(capsys.readouterr().out)["payload"][flag] is holds, path
        checked += 1
    assert checked == 8


# every (task, expect_<name>) pair the scenario table declares
EXPECTATIONS = [
    (task, key) for task, spec in scenario.TASKS.items() for key in spec.params if key.startswith("expect_")
]


@pytest.mark.parametrize("task, key", EXPECTATIONS)
def test_each_declared_expectation_decides_the_verdict(monkeypatch, task, key):
    # the real runner runs once on a bundled scenario with no expectation;
    # the verdict then follows its outcome alone
    assert len(EXPECTATIONS) == 7
    data = next(d for d in map(scenario.load_scenario, sorted(scenario.bundled_scenarios())) if d["task"] == task)
    data["params"] = {k: v for k, v in data["params"].items() if not k.startswith("expect_")}
    payload, tolerances, base, outcome, tables = cli._TASK_RUNNERS[task](scenario.scenario_from_dict(copy.deepcopy(data)))
    assert base is True
    name = key[len("expect_"):]
    value = outcome[name]
    flipped = not value if scenario.TASKS[task].params[key].kind == "flag" else value + 1
    monkeypatch.setitem(cli._TASK_RUNNERS, task, lambda scen: (dict(payload), tolerances, base, outcome, tables))
    for given, verdict in ((value, True), (flipped, False)):
        data["params"][key] = given
        report = cli.run_scenario(scenario.scenario_from_dict(copy.deepcopy(data)))
        assert report.passed is verdict
        assert report.payload["expected_" + name] == given
        assert type(report.payload["expected_" + name]) is type(given)


def test_witness_only_on_a_failing_structure_check(capsys):
    # the worst sample of a passing check is rounding noise, so it is no witness
    for name, holds in (("su2_biinvariant_minkowski_lie", True), ("h3_euclidean_minkowski_lie", False)):
        assert cli.main(["--scenario", bundled(name), "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert payload["check_passed"] is holds
        if holds:
            assert payload["witness"] is None
        else:
            assert sorted(payload["witness"]) == ["u", "v", "x", "y"]
            assert all(len(payload["witness"][k]) == 3 for k in "xyuv")


def assert_s_at_start_is_row_zero(report):
    profile = report["tables"]["distortion_profile"]
    first_s = profile["rows"][0][profile["columns"].index("S")]
    assert np.float64(report["payload"]["s_at_start"]).tobytes() == np.float64(first_s).tobytes()


def test_s_at_start_is_row_zero_of_the_profile(tmp_path, capsys):
    # a second evaluation of S at (x0, y0), outside the path's batch,
    # read 1.39e-17 here against 1.04e-17 in row 0
    data = {
        "task": "s-curvature",
        "model": "su2",
        "norm": {"kind": "randers", "a": I3, "b": [-0.160927, 0.135998, 0.125919]},
        "params": {"y0": [-0.184876, -0.483124, 0.501538], "T": 0.03, "step": 0.001, "stride": 3},
    }
    assert cli.main(["--scenario", write_scenario(tmp_path, data), "--format", "machine"]) == 0
    assert_s_at_start_is_row_zero(json.loads(capsys.readouterr().out))


def test_past_antipode_scenario_meets_closed_form():
    # bi-invariant geodesics are cosets of one-parameter subgroups, so from
    # the identity the path is exp(t·e1); at t = 7 > 2π it has wound past
    # the antipode and its principal log is (7 − 4π)·e1
    scen = scenario.parse_scenario(bundled("su2_biinvariant_past_antipode"))
    report = cli.run_scenario(scen)
    assert report.passed
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.max(np.abs(np.asarray(report.payload["endpoint_x"]) - (7.0 - 4.0 * np.pi) * e1)) <= 1.0e-10
    assert np.max(np.abs(np.asarray(report.payload["endpoint_y"]) - e1)) <= 1.0e-10


# T = 4π in 1000 steps: sample 500 is exp(2π·e1) = −1, the antipode of the chart
ANTIPODE_RUN = {"T": 4.0 * np.pi, "step": 4.0 * np.pi / 1000}


@pytest.mark.parametrize(
    "a, X, run, code",
    [
        # bi-invariant: exp(t·e1) is the geodesic, also past the chart edge at 2π
        pytest.param(I3, [1.0, 0.0, 0.0], {"T": 7.0, "step": 0.01}, 0, id="a0-X0-0"),
        # an off-axis X of diag(1, 2, 3) is no geodesic vector; the orbit
        # check fails instead of leaving the chart
        pytest.param([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], [0.6, 0.8, 0.0],
                     {"T": 7.0, "step": 0.01}, 2, id="a1-X1-2"),
        # the comparison is on the group, so the antipode itself is no obstacle
        pytest.param(I3, [1.0, 0.0, 0.0], ANTIPODE_RUN, 0, id="a0-X0-antipode"),
    ],
)
def test_homogeneous_check_runs_past_chart_edge(tmp_path, capsys, a, X, run, code):
    path = write_scenario(
        tmp_path,
        {
            "task": "check-homogeneous",
            "model": "su2",
            "norm": {"kind": "euclidean", "a": a},
            "params": {"X": X, **run},
        },
    )
    assert cli.main(["--scenario", path, "--format", "machine"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["check_passed"] is (code == 0)


def test_path_tasks_at_the_antipode(tmp_path, capsys):
    # S and tau read the body velocity alone, so s-curvature runs through
    # −1; integrate-geodesic prints chart points, which −1 does not have
    data = {
        "model": "su2",
        "norm": {"kind": "euclidean", "a": I3},
        "params": {"y0": [1.0, 0.0, 0.0], **ANTIPODE_RUN},
    }
    path = write_scenario(tmp_path, {"task": "s-curvature", **data})
    assert cli.main(["--scenario", path, "--format", "machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["payload"]["max_abs_s"] <= 1.0e-12
    path = write_scenario(tmp_path, {"task": "integrate-geodesic", **data})
    assert cli.main(["--scenario", path]) == 1
    assert capsys.readouterr().err.startswith("error: ChartDomain:")


@pytest.mark.parametrize("x", [[2.0 * np.pi, 0.0, 0.0], [7.0, 0.0, 0.0]])
def test_berwald_base_point_outside_chart_exits_one(tmp_path, capsys, x):
    # 2π·e1 is −1, where A(x) is singular; 7·e1 lies past the chart bound
    a = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
    path = write_scenario(
        tmp_path,
        {
            "task": "berwald",
            "model": "su2",
            "norm": {"kind": "euclidean", "a": a},
            "params": {"x": x, "expect_berwald": True},
        },
    )
    assert cli.main(["--scenario", path]) == 1
    assert capsys.readouterr().err.startswith("error: ChartDomain:")


@pytest.mark.parametrize(
    "extra",
    [
        {"task": "check-homogeneous", "model": "heisenberg3", "params": {"X": [1.0, 0.0, 1.0]},
         "expect_passed": False},
        # the Riemannian H3 metric is Berwald, so the dropped key would pass
        {"task": "berwald", "model": "heisenberg3", "expect_berwald": False},
    ],
)
def test_top_level_unknown_key_exits_one(tmp_path, capsys, extra):
    path = write_scenario(tmp_path, {"norm": {"kind": "euclidean", "a": I3}, **extra})
    code = cli.main(["--scenario", path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ValidationError:")
    assert repr(next(key for key in extra if key.startswith("expect_"))) in err
    assert "task, model, norm, params, seed, m_indices, h_indices" in err


@pytest.mark.parametrize(
    "text, key",
    [
        # the last value would win and flip the expectation to a pass
        ('{"task": "check-minkowski-lie", "model": "heisenberg3", "norm": %s, '
         '"params": {"expect_passed": true, "expect_passed": false}}', "expect_passed"),
        ('{"task": "check-minkowski-lie", "task": "check-nat-reductive", "model": "heisenberg3", '
         '"norm": %s, "params": {"expect_passed": false}}', "task"),
    ],
)
def test_duplicate_json_key_exits_one(tmp_path, capsys, text, key):
    path = tmp_path / "dup.json"
    path.write_text(text % json.dumps({"kind": "euclidean", "a": I3}), encoding="utf-8")
    code = cli.main(["--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ParseError:")
    assert f"{path}: duplicate key {key!r}" in err


_NO_SCIPY = """
import importlib, os, pkgutil, sys
sys.modules["scipy"] = None
import finslergeo
for info in pkgutil.iter_modules(finslergeo.__path__):
    importlib.import_module("finslergeo." + info.name)
from finslergeo import cli, sphere
code = cli.main(["--scenario", sys.argv[1], "--format", "machine", "--out", os.devnull])
assert code == 0, code
assert sphere.seeds(4, 512).shape == (512, 4)
"""


def test_package_runs_without_scipy():
    # finslergeo depends on numpy alone; a scipy import anywhere fails here
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, bundled("h3_randers_scurvature_e1")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_mistyped_split_is_one_error_line(tmp_path):
    # a split that is no list ends the process with one typed error line, not a traceback
    path = write_scenario(
        tmp_path,
        {"task": "check-nat-reductive", "model": "su2", "norm": {"kind": "euclidean", "a": I3}, "m_indices": 3},
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "finslergeo.cli", "--scenario", path], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ParseError:"), proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["--tol", "abc"], ["--seed", "1.5"], []],
    ids=["tol-not-a-number", "seed-not-an-integer", "no-scenario"],
)
def test_usage_error_exits_one(capsys, argv):
    # exit 2 means a check disagreed with its expectation; a command line
    # that argparse rejects is a run that errored
    if argv:
        argv = ["--scenario", bundled("h3_randers_berwald")] + argv
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: finslergeo") and "error:" in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "--scenario" in capsys.readouterr().out


def test_usage_error_exits_one_as_a_process():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "finslergeo.cli", "--scenario", bundled("h3_randers_berwald"), "--tol", "abc"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "invalid float value: 'abc'" in proc.stderr


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = cli.main(["--scenario", bundled("su2_biinvariant_nat_reductive"), "--format", "machine", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FileNotFoundError:"), captured.err
    assert not out.exists()


H3_RANDERS = {"kind": "randers", "a": I3, "b": [0.2, 0.0, 0.1]}
INLINE_SU2 = {"dim": 3, "structure_constants": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]}


@pytest.mark.parametrize(
    "data, error",
    [
        ({"task": 5, "model": "su2", "norm": {"kind": "euclidean", "a": I3}}, "ParseError"),
        ({"task": "check-minkowski-lie", "model": {"dim": 3, "structure_constants": [[1, 2, 3]]},
          "norm": {"kind": "euclidean", "a": I3}}, "ParseError"),
        ({"task": "check-minkowski-lie", "model": "su2", "norm": {"kind": "finsler", "a": I3}}, "ValidationError"),
        ([{"task": "check-minkowski-lie"}], "ParseError"),
        ({"task": "check-minkowski-lie", "model": "su2", "norm": {"kind": "euclidean", "a": I3}, "params": [1]},
         "ParseError"),
        ({"task": "check-minkowski-lie", "model": "su2",
          "norm": {"kind": "euclidean", "a": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
         "NotPositiveDefinite"),
        ({"task": "check-homogeneous", "model": "heisenberg3", "norm": H3_RANDERS,
          "params": {"X": [0.0, 0.0, 0.0]}}, "ZeroVector"),
        ({"task": "integrate-geodesic", "model": "su2", "norm": {"kind": "euclidean", "a": I3},
          "params": {"y0": [0.0, 0.0, 0.0], "T": 0.1, "step": 0.01}}, "ZeroVector"),
    ],
    ids=["task-not-a-string", "constant-not-a-4-list", "unknown-norm-kind", "top-level-not-an-object",
         "params-not-an-object", "a-not-symmetric", "homogeneous-zero-X", "integrate-zero-y0"],
)
def test_error_paths_exit_one(tmp_path, capsys, data, error):
    code = cli.main(["--scenario", write_scenario(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {error}:"), err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"task": "check-minkowski-lie", "model": "su2", "norm": {"kind": "euclidean", "a": I3, "b": [0.5, 0, 0]}},
         "'b'"),
        ({"task": "check-minkowski-lie", "model": "su2", "norm": {"kind": "euclidean", "a": I3, "bogus": 1}},
         "'bogus'"),
        ({"task": "check-homogeneous", "model": "heisenberg3", "norm": dict(H3_RANDERS, bogus=1),
          "params": {"X": [1.0, 0.0, 0.0]}}, "'bogus'"),
        ({"task": "check-minkowski-lie", "model": dict(INLINE_SU2, name="su2"),
          "norm": {"kind": "euclidean", "a": I3}}, "'name'"),
    ],
    ids=["euclidean-b", "euclidean-bogus", "randers-bogus", "inline-model-name"],
)
def test_undeclared_block_key_exits_one(tmp_path, capsys, data, key):
    # the key would be dropped: a Euclidean b, or a model name beside inline constants
    code = cli.main(["--scenario", write_scenario(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ValidationError:") and key in err, err


@pytest.mark.parametrize(
    "data",
    [
        {"task": "check-minkowski-lie", "model": "su2", "norm": {"kind": "euclidean", "a": I3},
         "m_indices": [3, 1, 2]},
        {"task": "integrate-geodesic", "model": "heisenberg3", "norm": H3_RANDERS,
         "params": {"y0": [0.3, 0.8, 0.5], "T": 0.1, "step": 0.01}, "m_indices": [2, 3, 1]},
        {"task": "berwald", "model": "su2", "norm": {"kind": "euclidean", "a": I3}, "m_indices": [1, 2, 3],
         "h_indices": []},
    ],
    ids=["minkowski-lie-permuted", "integrate-permuted", "berwald-identity-split"],
)
def test_split_keys_rejected_by_whole_algebra_tasks(tmp_path, capsys, data):
    # these tasks read m = g in basis order; a split they would ignore is an error
    code = cli.main(["--scenario", write_scenario(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ValidationError:"), err
    given = [key for key in ("m_indices", "h_indices") if key in data]
    assert all(key in err for key in given), err
