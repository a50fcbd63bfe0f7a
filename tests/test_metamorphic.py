"""Metamorphic checks of the zero-set verdicts: transformations of a
scenario whose geodesic vectors are known to move with it.

Scaling F → sF (a → s²a, b → s·b) keeps every geodesic vector and scales
the criterion residual by s², so with tol → s²·tol the solver must find
the same zero set.  The structure checks of the same scenarios scale
alike: their residual is s² times its own, so with tol → s²·tol every
verdict holds, while the Berwald parallelogram defect is scale-free and
keeps its tolerance.  An orthonormal change of basis Q transforms the
structure constants, a and b together, c'[i, j, k] = Q_pi Q_qj c[p, q, r]
Q_rk, a' = QᵀaQ and b' = Qᵀb, and maps the zero set onto itself; the
seeds do not rotate with it, so only the verdicts, the branch counts and
whether every seed is geodesic are pinned.

Rescaling time, y0 → λ·y0, T → T/λ and step → step/λ, scales u and μ by
λ and leaves every group increment θ_i as it was: F is 1-homogeneous and
ad* is bilinear.  For λ a power of two every scaling is exact, so the
group path is bitwise the same and the body velocities and F are bitwise
λ times theirs; for λ = 3 the path moves by rounding alone.
"""

import copy
import dataclasses
import os
import sys

import numpy as np
import pytest

from finslergeo import cli, norms, scenario
from finslergeo import geodesic_flow as gf
from finslergeo import geodesic_vectors as gv

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import workloads  # noqa: E402

# converged seeds and branches of each bundled zero set at s = 1
BUNDLED_COUNTS = {
    "h3_euclidean_geodesic_vectors.json": (1024, 2),
    "h3_randers_geodesic_vectors.json": (1018, 2),
    "su2_biinvariant_geodesic_vectors.json": (1024, 1),
}


def bundled(name):
    return scenario.parse_scenario(os.path.join(os.path.dirname(scenario.__file__), "scenarios", name))


def scaled(norm, s):
    if isinstance(norm, norms.RandersNorm):
        return norms.RandersNorm(s * s * norm.a, s * norm.b)
    return norms.EuclideanNorm(s * s * norm.a)


@pytest.mark.parametrize("name", sorted(BUNDLED_COUNTS))
@pytest.mark.parametrize("s", [1.0e-4, 1.0e-3, 1.0, 1.0e4])
def test_zero_set_is_scale_free(name, s):
    # the constraint row of the Newton step is weighted by trace(JᵀJ)/n;
    # unweighted, JᵀJ ~ s⁴ sank under the damping at s = 1e-3
    scen = bundled(name)
    tol = s * s * scen.params["tol"]
    found = gv.find_geodesic_vectors(scen.split, scaled(scen.norm, s), samples=scen.params["samples"], tol=tol)
    assert (found.converged_total, found.branch_count) == BUNDLED_COUNTS[name]
    assert found.branch_count == scen.params["expect_branches"]
    assert len(found.representatives) and np.all(found.residual_norms <= tol)


STRUCTURE_AND_BERWALD = sorted(
    os.path.basename(path) for path in scenario.bundled_scenarios()
    if path.endswith(("_nat_reductive.json", "_minkowski_lie.json", "_berwald.json"))
)


@pytest.mark.parametrize("name", STRUCTURE_AND_BERWALD)
@pytest.mark.parametrize("s", [1.0e-3, 1.0e4])
def test_structure_and_berwald_verdicts_are_scale_free(name, s):
    scen = bundled(name)
    want = cli.run_scenario(scen)
    params = dict(scen.params)
    if scen.task != "berwald":
        params["tol"] = s * s * params["tol"]
    got = cli.run_scenario(dataclasses.replace(scen, norm=scaled(scen.norm, s), params=params))
    assert got.passed == want.passed
    eps = np.finfo(float).eps
    if scen.task == "berwald":
        assert got.payload["is_berwald"] == want.payload["is_berwald"]
        # a failing defect moved by at most 2.6 eps relative over these cases
        if not want.payload["is_berwald"]:
            defect = want.payload["max_parallelogram_defect"]
            assert abs(got.payload["max_parallelogram_defect"] - defect) <= 8.0 * eps * defect
    else:
        assert got.payload["check_passed"] == want.payload["check_passed"]
        # a failing residual over s² moved by at most 0.73 eps relative
        if not want.payload["check_passed"]:
            residual = want.payload["max_residual"]
            assert abs(got.payload["max_residual"] / (s * s) - residual) <= 4.0 * eps * residual


def rotated(data, q):
    """The scenario dict in the basis of q's columns, with an inline algebra."""
    scen = scenario.scenario_from_dict(copy.deepcopy(data))
    assert not scen.split.h_indices
    c = np.einsum("pi,qj,pqr,rk->ijk", q, q, scen.split.algebra.c, q)
    n = len(q)
    constants = [
        [i + 1, j + 1, k + 1, float(c[i, j, k])]
        for i in range(n) for j in range(i + 1, n) for k in range(n) if c[i, j, k] != 0.0
    ]
    a = q.T @ scen.norm.a @ q
    norm = {"kind": data["norm"]["kind"], "a": (0.5 * (a + a.T)).tolist()}
    if "b" in data["norm"]:
        norm["b"] = (q.T @ scen.norm.b).tolist()
    out = copy.deepcopy(data)
    out.update(model={"dim": n, "structure_constants": constants}, norm=norm)
    return out


def zero_set_dicts():
    """The bundled geodesic-vectors scenarios and the geodesic-vectors
    slots of the zero-sets benchmark mix at seeds 1 and 2."""
    items = [scenario.load_scenario(path) for path in scenario.bundled_scenarios()]
    items += [item["scenario"] for seed in (1, 2) for item in workloads.generate("zero-sets", seed)]
    return [data for data in items if data["task"] == "geodesic-vectors"]


def test_orthonormal_change_of_basis_keeps_every_verdict():
    rng = np.random.RandomState(5)
    cases = zero_set_dicts()
    assert len(cases) == 3 + 2 * 14
    for data in cases:
        want = cli.run_scenario(scenario.scenario_from_dict(copy.deepcopy(data)))
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            got = cli.run_scenario(scenario.scenario_from_dict(rotated(data, q)))
            assert got.passed == want.passed
            for key in ("branch_count", "all_sampled_vectors_geodesic"):
                assert got.payload[key] == want.payload[key], key


_A = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.5]]
_RANDERS = {"kind": "randers", "a": _A, "b": [0.3, 0.1, 0.2]}


def time_cases():
    """The bundled integrate-geodesic and check-homogeneous scenarios, cut
    to 500 steps, and generic Euclidean and Randers metrics on H3 and SU(2)."""
    items = [scenario.load_scenario(path) for path in scenario.bundled_scenarios()]
    items = [data for data in items if data["task"] in ("integrate-geodesic", "check-homogeneous")]
    assert len(items) == 4
    for data in items:
        data["params"]["T"] = min(data["params"]["T"], 500 * data["params"]["step"])
    flow = {"T": 0.5, "step": 1.0e-3}
    return items + [
        {"task": "integrate-geodesic", "model": "su2", "norm": _RANDERS, "params": {"y0": [0.6, -0.3, 0.5], **flow}},
        {"task": "integrate-geodesic", "model": "heisenberg3", "norm": {"kind": "euclidean", "a": _A},
         "params": {"y0": [0.3, 0.8, 0.5], **flow}},
        {"task": "check-homogeneous", "model": "su2", "norm": _RANDERS,
         "params": {"X": [0.6, -0.3, 0.5], "expect_passed": False, **flow}},
        {"task": "check-homogeneous", "model": "heisenberg3", "norm": _RANDERS,
         "params": {"X": [0.3, 0.8, 0.5], "expect_passed": False, **flow}},
    ]


def time_scaled(data, lam):
    out = copy.deepcopy(data)
    params = out["params"]
    key = "y0" if "y0" in params else "X"
    params[key] = [lam * v for v in params[key]]
    params["T"] /= lam
    params["step"] /= lam
    return out


def time_pair(data, lam):
    """The run report and, for integrate-geodesic, the path of the scenario
    and of its time-rescaled twin; a check-homogeneous payload holds its
    measurements."""
    out = []
    for item in (data, time_scaled(data, lam)):
        scen = scenario.scenario_from_dict(copy.deepcopy(item))
        p = scen.params
        path = None
        if scen.task == "integrate-geodesic":
            path = gf.integrate_geodesic(scen.model, scen.norm, p["x0"], p["y0"], T=p["T"], step=p["step"])
        out.append((cli.run_scenario(scen), path))
    (want, base), (got, twin) = out
    assert got.passed == want.passed
    if "check_passed" in want.payload:
        assert got.payload["check_passed"] == want.payload["check_passed"]
    return want.payload, got.payload, base, twin


@pytest.mark.parametrize("lam", [2.0**-3, 2.0**2, 2.0**5])
def test_time_rescaling_by_a_power_of_two_is_exact(lam):
    for data in time_cases():
        want, got, base, twin = time_pair(data, lam)
        if base is not None:
            assert np.array_equal(twin.points, base.points)
            assert np.array_equal(twin.body, lam * base.body)
            assert np.array_equal(twin.F_values, lam * base.F_values)
            assert np.array_equal(lam * twin.ts, base.ts)
        else:
            assert got["sup_distance"] == want["sup_distance"]
            assert got["residual_norm"] == lam * lam * want["residual_norm"]


def test_time_rescaling_by_three_moves_by_rounding():
    # step/3 and 3·y0 round, so each step's θ moves by a few ulps and the
    # path drifts like a random walk: within eps·√N of the path's scale
    eps = np.finfo(float).eps
    for data in time_cases():
        want, got, base, twin = time_pair(data, 3.0)
        drift = eps * np.sqrt(gf.step_count(data["params"]["T"], data["params"]["step"]))
        if base is not None:
            assert np.max(np.abs(twin.points - base.points)) <= drift * max(1.0, np.max(np.abs(base.points)))
            assert np.max(np.abs(twin.body - 3.0 * base.body)) <= 4.0 * drift * np.max(np.abs(3.0 * base.body))
        else:
            assert abs(got["sup_distance"] - want["sup_distance"]) <= drift * max(1.0, want["sup_distance"])
            # the residual is formed once, at X, and cancels: a few dozen ulps of it
            assert abs(got["residual_norm"] - 9.0 * want["residual_norm"]) <= 64.0 * eps * 9.0 * want["residual_norm"]
