"""Scenario-driven command line front end.

Parses a scenario file, dispatches to the library, and emits a
deterministic report.  The library returns measurements; every
comparison with a scenario tolerance, and so every verdict, is made
here.  A runner returns its payload, its tolerances, the verdict of its
own tolerances, and an outcome per expectable quantity; `run_scenario`
alone reads the expectations.  For each `expect_<name>` the scenario
gives, it writes `expected_<name>` into the payload and requires
`outcome[<name>]` to equal it, so no runner can drop an expectation.
Exit code 0 means every check in the scenario agreed with its
expectation, 2 means some check failed, 1 means the run errored before
producing a verdict, a usage error or an unwritable report included.
"""

import argparse
import sys
import time

import numpy as np

from . import geodesic_flow, geodesic_vectors, reports, s_curvature, scenario
from .errors import FinslerGeoError


def _run_geodesic_vectors(scen):
    p = scen.params
    tol = p["tol"]
    result = geodesic_vectors.find_geodesic_vectors(
        scen.split, scen.norm, samples=p["samples"], tol=tol
    )
    max_rep = float(np.max(result.residual_norms)) if len(result.residual_norms) else 0.0
    payload = {
        "seeds_total": result.seeds_total,
        "converged_total": result.converged_total,
        "all_sampled_vectors_geodesic": result.all_seeds_geodesic,
        "branch_count": result.branch_count,
        "branch_labels": list(result.branch_labels),
        "representatives": result.representatives,
        "residual_norms": result.residual_norms,
        "max_representative_residual": max_rep,
    }
    passed = len(result.representatives) > 0 and max_rep <= tol
    outcome = {"all_geodesic": result.all_seeds_geodesic, "branches": result.branch_count}
    return payload, {"residual": tol}, passed, outcome, {}


def _run_nat_reductive(scen):
    # check-minkowski-lie is the natural-reductivity identity on its split m = g
    p = scen.params
    tol = p["tol"]
    report = geodesic_vectors.check_naturally_reductive(scen.split, scen.norm, samples=p["samples"], seed=scen.seed)
    passed = report.max_residual <= tol
    payload = {
        "max_residual": report.max_residual,
        "check_passed": passed,
        # a passing check's worst sample is rounding noise, not a witness
        "witness": None if passed else report.witness,
    }
    return payload, {"residual": tol}, True, {"passed": passed}, {}


def _trajectory_table(path, points, velocities) -> dict:
    dim = points.shape[-1]
    columns = (
        ["t"]
        + [f"x{i + 1}" for i in range(dim)]
        + [f"y{i + 1}" for i in range(dim)]
        + ["F"]
    )
    rows = np.column_stack([path.ts, points, velocities, path.F_values])
    return {"columns": columns, "rows": rows}


def _run_integrate(scen):
    p = scen.params
    tol = p["tol"]
    path = geodesic_flow.integrate_geodesic(scen.model, scen.norm, p["x0"], p["y0"], T=p["T"], step=p["step"])
    points, velocities = geodesic_flow.chart_coordinates(scen.model, path, p["x0"], p["y0"])
    drift = float(np.max(np.abs(path.F_values - path.F_values[0])) / path.F_values[0])
    payload = {
        "samples": len(path.ts),
        "F_initial": float(path.F_values[0]),
        "F_final": float(path.F_values[-1]),
        "max_relative_F_drift": drift,
        "endpoint_x": points[-1],
        "endpoint_y": velocities[-1],
    }
    tables = {"trajectory": _trajectory_table(path, points, velocities)}
    return payload, {"relative_F_drift": tol}, drift <= tol, {}, tables


def _run_homogeneous(scen):
    p = scen.params
    tol = p["tol"]
    sup = geodesic_flow.is_homogeneous_geodesic(scen.model, scen.norm, p["X"], T=p["T"], step=p["step"])
    residual = geodesic_vectors.residual_batch(scen.split, scen.norm, p["X"])
    passed = sup <= tol
    payload = {
        "sup_distance": sup,
        "residual_norm": float(np.linalg.norm(residual)),
        "check_passed": passed,
    }
    return payload, {"sup_distance": tol}, True, {"passed": passed}, {}


def _run_s_curvature(scen):
    p = scen.params
    tol_s = p["tol"]
    tau_tol = p["tau_tol"]
    path = geodesic_flow.integrate_geodesic(scen.model, scen.norm, p["x0"], p["y0"], T=p["T"], step=p["step"])
    stride = p["stride"]
    profile = s_curvature.s_along_path(scen.split.algebra, scen.norm, path.ts[::stride], path.body[::stride])
    # row 0 is S at u = A(x0)·y0, where the path starts
    s_start = float(profile.s_values[0])
    max_s = float(np.max(np.abs(profile.s_values)))
    tau_drift = float(np.max(np.abs(profile.taus - profile.taus[0])))
    payload = {
        "s_at_start": s_start,
        "max_abs_s": max_s,
        "tau_drift": tau_drift,
        "samples": len(profile.ts),
    }
    vanishes = max_s <= tol_s and tau_drift <= tau_tol
    rows = np.column_stack([profile.ts, profile.taus, profile.s_values, profile.sigma_errors])
    tables = {"distortion_profile": {"columns": ["t", "tau", "S", "sigma_error"], "rows": rows}}
    return payload, {"abs_s": tol_s, "tau_drift": tau_tol}, True, {"vanishing": vanishes}, tables


def _run_berwald(scen):
    p = scen.params
    tol = p["tol"]
    defect = geodesic_flow.berwald_test(scen.model, scen.norm, x=p["x"], samples=p["samples"])
    is_berwald = defect <= tol
    payload = {
        "max_parallelogram_defect": defect,
        "is_berwald": is_berwald,
    }
    return payload, {"parallelogram_defect": tol}, True, {"berwald": is_berwald}, {}


_TASK_RUNNERS = {
    "geodesic-vectors": _run_geodesic_vectors,
    "check-nat-reductive": _run_nat_reductive,
    "check-minkowski-lie": _run_nat_reductive,
    "integrate-geodesic": _run_integrate,
    "check-homogeneous": _run_homogeneous,
    "s-curvature": _run_s_curvature,
    "berwald": _run_berwald,
}


def run_scenario(scen) -> reports.RunReport:
    start = time.perf_counter()
    payload, tolerances, passed, outcome, tables = _TASK_RUNNERS[scen.task](scen)
    for key, value in scen.params.items():
        if key.startswith("expect_"):
            name = key[len("expect_"):]
            payload["expected_" + name] = value
            # the lookup comes first, so a runner without this outcome raises
            passed = outcome[name] == value and passed
    return reports.RunReport(
        digest=reports.scenario_digest(scen.raw),
        task=scen.task,
        passed=bool(passed),
        payload=reports.plain(payload),
        tolerances=reports.plain(tolerances),
        tables=reports.plain(tables),
        wall_time=time.perf_counter() - start,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="finslergeo",
        description="Run a homogeneous-Finsler scenario and report the checks.",
    )
    parser.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--tol", type=float, help="override the task's main tolerance")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; only --help exits 0
        return 1 if exc.code else 0
    try:
        data = scenario.load_scenario(args.scenario)
        # overrides are written into the scenario, so they are checked and
        # digested like the values a file gives
        if args.seed is not None:
            data["seed"] = args.seed
        if args.tol is not None:
            params = data.setdefault("params", {})
            if isinstance(params, dict):
                params["tol"] = args.tol
        report = run_scenario(scenario.scenario_from_dict(data))
        body = reports.machine_report(report) if args.format == "machine" else reports.text_report(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        else:
            sys.stdout.write(body)
    except (FinslerGeoError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
