"""Metamorphic checks of the zero-set verdicts: transformations of a
scenario whose geodesic vectors are known to move with it.

Scaling F → sF (a → s²a, b → s·b) keeps every geodesic vector and scales
the criterion residual by s², so with tol → s²·tol the solver must find
the same zero set.  An orthonormal change of basis Q transforms the
structure constants, a and b together, c'[i, j, k] = Q_pi Q_qj c[p, q, r]
Q_rk, a' = QᵀaQ and b' = Qᵀb, and maps the zero set onto itself; the
seeds do not rotate with it, so only the verdicts, the branch counts and
whether every seed is geodesic are pinned.
"""

import copy
import os
import sys

import numpy as np
import pytest

from finslergeo import cli, norms, scenario
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
