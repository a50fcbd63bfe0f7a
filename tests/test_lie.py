"""Structure-constants machinery: brackets, Jacobi, reductive splits."""

import re
import tracemalloc

import numpy as np
import pytest

from finslergeo import lie, scenario
from finslergeo.errors import DimensionMismatch, ValidationError


def su2_plus_line() -> np.ndarray:
    """Structure constants of su(2) + R: su(2) on e1..e3, e4 central."""
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = lie.su2().c
    return c


def split_scenario(model, m, h, task="check-nat-reductive"):
    """A scenario on the split g = h + m (1-based indices), norm a = I on m."""
    if isinstance(model, np.ndarray):
        n = model.shape[0]
        entries = [
            [i + 1, j + 1, k + 1, float(model[i, j, k])]
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(n)
            if model[i, j, k] != 0.0
        ]
        model = {"dim": n, "structure_constants": entries}
    return {
        "task": task,
        "model": model,
        "norm": {"kind": "euclidean", "a": np.eye(len(m)).tolist()},
        "m_indices": m,
        "h_indices": h,
    }


def test_builtin_brackets():
    h3 = lie.heisenberg3()
    e = np.eye(3)
    assert np.array_equal(lie.bracket(h3, e[0], e[1]), e[2])
    assert np.array_equal(lie.bracket(h3, e[1], e[0]), -e[2])
    assert np.array_equal(lie.bracket(h3, e[2], e[0]), np.zeros(3))
    su2 = lie.su2()
    assert np.array_equal(lie.bracket(su2, e[1], e[2]), e[0])
    assert np.array_equal(lie.bracket(su2, e[2], e[0]), e[1])


def test_bracket_bilinear_antisymmetric():
    rng = np.random.RandomState(666)
    su2 = lie.su2()
    for _ in range(200):
        x, y, z = rng.standard_normal((3, 3))
        a, b = rng.standard_normal(2)
        lhs = lie.bracket(su2, a * x + b * y, z)
        rhs = a * lie.bracket(su2, x, z) + b * lie.bracket(su2, y, z)
        assert np.max(np.abs(lhs - rhs)) < 1.0e-12
        assert np.max(np.abs(lie.bracket(su2, x, x))) < 1.0e-12
        assert np.max(np.abs(lie.bracket(su2, x, y) + lie.bracket(su2, y, x))) < 1.0e-12


def test_bracket_dimension_check():
    with pytest.raises(DimensionMismatch):
        lie.bracket(lie.su2(), np.ones(4), np.ones(3))


def test_coadjoint_is_dual_to_the_bracket():
    # <ad*_u mu, v> = <mu, [u, v]>, and ad_u, its transpose, maps v to [u, v]
    rng = np.random.RandomState(5)
    for alg in (lie.heisenberg3(), lie.su2(), lie.LieAlgebraData(4, su2_plus_line())):
        for shape in ((), (64,)):
            u, mu, v = (rng.standard_normal(shape + (alg.dim,)) for _ in range(3))
            # ad*_u mu on the batch-last rows of u and mu
            rows = np.zeros((alg.dim,) + shape)
            lie.add_coadjoint(lie.terms(alg.c), np.moveaxis(u, -1, 0), np.moveaxis(mu, -1, 0), rows)
            coad = np.moveaxis(rows, 0, -1)
            bracket = lie.bracket(alg, u, v)
            left = np.einsum("...j,...j->...", coad, v)
            right = np.einsum("...k,...k->...", mu, bracket)
            assert np.all(np.abs(left - right) <= 1.0e-14 * (1.0 + np.abs(right)))
            ad = lie.ad(alg, u)
            assert np.max(np.abs((ad @ v[..., None])[..., 0] - bracket)) <= 1.0e-14
            assert np.max(np.abs((np.swapaxes(ad, -1, -2) @ mu[..., None])[..., 0] - coad)) <= 1.0e-14


def test_jacobi_residual_builtins():
    for alg in (lie.heisenberg3(), lie.su2(), lie.abelian(4), lie.LieAlgebraData(4, su2_plus_line())):
        mag, _ = lie.jacobi_residual(alg)
        assert mag <= 1.0e-14


def jacobi_residual_dim4(c):
    """The Jacobi violation from the whole dim^4 tensor at once: the
    formula jacobi_residual used before it took one i-slice at a time."""
    term = np.einsum("ijm,mkl->ijkl", c, c)
    total = term + np.einsum("ijkl->jkil", term) + np.einsum("ijkl->kijl", term)
    idx = np.unravel_index(np.argmax(np.abs(total)), total.shape)
    return float(np.abs(total[idx])), tuple(int(w) for w in idx)


@pytest.mark.parametrize("dim", range(1, 9))
def test_jacobi_residual_matches_the_dim4_formula(dim):
    # integer constants sum exactly, so |J| ties often and the first
    # maximum in C order must win; float constants tie up to rounding
    # over the permutations of (i, j, k), and the slices round as the
    # whole tensor does
    rng = np.random.RandomState(dim)
    for _ in range(20):
        for c in (rng.randint(-2, 3, (dim,) * 3).astype(float), rng.standard_normal((dim,) * 3)):
            c = c - np.swapaxes(c, 0, 1)
            assert lie.jacobi_residual(lie.LieAlgebraData(dim, c)) == jacobi_residual_dim4(c)
    for alg in (lie.heisenberg3(), lie.su2(), lie.abelian(dim)):
        assert lie.jacobi_residual(alg) == jacobi_residual_dim4(alg.c)


def test_jacobi_residual_memory_is_cubic():
    # one dim^4 array of float64 is 20 MB at dim 40; the slices need
    # about 1 MB
    c = np.random.RandomState(0).standard_normal((40, 40, 40))
    alg = lie.LieAlgebraData(40, c - np.swapaxes(c, 0, 1))
    tracemalloc.start()
    try:
        lie.jacobi_residual(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_validate_trivial_isotropy():
    for task in ("geodesic-vectors", "check-nat-reductive"):
        scen = scenario.scenario_from_dict(split_scenario("heisenberg3", [1, 2, 3], [], task))
        assert scen.split.m_indices == (0, 1, 2)
        assert scen.split.h_indices == ()
    # SU(2)/U(1): m = {e1, e2}, h = {e3}, and the norm lives on m
    scen = scenario.scenario_from_dict(split_scenario("su2", [1, 2], [3]))
    assert scen.norm.dim == 2


def test_validate_detects_bad_split():
    # su(2) + R with a planted bracket [e4, e1] = e4 landing in h: it is
    # not a Lie algebra, so the Jacobi check rejects it first
    c = su2_plus_line()
    c[3, 0, 3] = 1.0
    c[0, 3, 3] = -1.0
    with pytest.raises(ValidationError) as err:
        scenario.scenario_from_dict(split_scenario(c, [1, 2, 3], [4]))
    assert "Jacobi" in str(err.value)
    # the same bracket in the 2-dim algebra [e1, e2] = e2, which is Lie
    c = np.zeros((2, 2, 2))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    with pytest.raises(ValidationError) as err:
        scenario.scenario_from_dict(split_scenario(c, [1], [2]))
    assert "[h, m] in m" in str(err.value)
    assert "[e2, e1] has e2 component -1" in str(err.value)
    # H3, h = {e2, e3}: [e2, e1] = -e3 leaves m
    with pytest.raises(ValidationError) as err:
        scenario.scenario_from_dict(split_scenario("heisenberg3", [1], [2, 3]))
    assert "[e2, e1] has e3 component -1" in str(err.value)
    # H3, h = {e1, e2}: [e1, e2] = e3 leaves h, so h is no subalgebra
    with pytest.raises(ValidationError) as err:
        scenario.scenario_from_dict(split_scenario("heisenberg3", [3], [1, 2], "geodesic-vectors"))
    assert "[h, h] in h" in str(err.value)
    assert "[e1, e2] has e3 component 1" in str(err.value)


def test_validate_locates_jacobi_failure():
    rng = np.random.RandomState(7)
    raw = rng.standard_normal((4, 4, 4))
    c = raw - np.swapaxes(raw, 0, 1)
    with pytest.raises(ValidationError) as err:
        scenario.scenario_from_dict(split_scenario(c, [1, 2, 3, 4], []))
    found = re.search(r"residual (\S+) at basis triple \((\d), (\d), (\d)\)", str(err.value))
    assert found
    magnitude = float(found.group(1))
    i, j, k = (int(found.group(n)) - 1 for n in (2, 3, 4))
    # the cyclic sum at the named triple, recomputed by hand
    total = np.zeros(4)
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        total += sum(c[a, b, m] * c[m, d] for m in range(4))
    assert abs(np.max(np.abs(total)) - magnitude) <= 1.0e-3 * magnitude
