"""Jet arithmetic against analytic, finite-difference and dense-table
oracles, and the guard that keeps the jet route out of production code."""

import ast
import os

import numpy as np
import pytest

import finslergeo
from finslergeo import jets
from finslergeo.jets import Jet


def random_jet(rng, order, shape=()):
    return Jet(rng.standard_normal(shape + (1 << order,)), order)


def mul_table(order):
    """Dense structure tensor M[s, a, b] = 1 when ε_a ε_b = ε_s, else 0."""
    m = 1 << order
    table = np.zeros((m, m, m))
    for a in range(m):
        for b in range(m):
            if a & b == 0:
                table[a | b, a, b] = 1.0
    return table


# The dense-table contractions: the oracle for the products jets.py
# computes from the 3**k nonzero entries of the table and by matmul.
def dense_mul(x, y, order):
    return np.einsum("sab,...a,...b->...s", mul_table(order), x, y)


def dense_dot(x, y, order):
    return np.einsum("sab,...pa,...pb->...s", mul_table(order), x, y)


def dense_matvec(mat, x):
    return np.einsum("...pq,...qs->...ps", mat, x)


def assert_matches_dense(got, x, y, dense):
    """got equals the dense contraction of x and y to 1e-15 relative to the
    same contraction of |x| and |y|, the scale of its rounding."""
    want = dense(x, y)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1.0e-15 * dense(np.abs(x), np.abs(y)))


# (x, y) coefficient shapes without the coefficient axis: equal, broadcast
# against each other, and a single jet against a batch
SCALAR_SHAPES = [((), ()), ((64,), (64,)), ((8, 1), (1, 8)), ((), (4, 16))]
VECTOR_SHAPES = [((3,), (3,)), ((64, 4), (64, 4)), ((8, 1, 2), (1, 8, 2)), ((3,), (4, 16, 3))]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("constant", [False, True])
def test_products_match_the_dense_table(order, constant):
    rng = np.random.RandomState(17 + order)

    def operands(xshape, yshape):
        x = random_jet(rng, order, xshape)
        y = Jet.constant(rng.standard_normal(yshape), order) if constant else random_jet(rng, order, yshape)
        return x, y

    for xshape, yshape in SCALAR_SHAPES:
        x, y = operands(xshape, yshape)
        assert_matches_dense((x * y).c, x.c, y.c, lambda u, v: dense_mul(u, v, order))
        assert_matches_dense((y * x).c, y.c, x.c, lambda u, v: dense_mul(u, v, order))
    for xshape, yshape in VECTOR_SHAPES:
        x, y = operands(xshape, yshape)
        assert_matches_dense(jets.dot(x, y).c, x.c, y.c, lambda u, v: dense_dot(u, v, order))
        n = xshape[-1]
        for mat_shape in ((n, n), xshape[:-1] + (n, n)):
            mat = rng.standard_normal(mat_shape)
            assert_matches_dense(jets.matvec(mat, y).c, mat, y.c, dense_matvec)


def test_ring_axioms():
    rng = np.random.RandomState(666)
    for _ in range(50):
        x = random_jet(rng, 3)
        y = random_jet(rng, 3)
        z = random_jet(rng, 3)
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert np.max(np.abs(lhs.c - rhs.c)) < 1.0e-12
        assert np.max(np.abs((x * y).c - (y * x).c)) < 1.0e-12
        lhs = x * (y + z)
        rhs = x * y + x * z
        assert np.max(np.abs(lhs.c - rhs.c)) < 1.0e-12


def test_generators_square_to_zero():
    y = np.array([1.0, 2.0, 3.0])
    e = np.eye(3)
    v = jets.variable(y, [e[0], e[1], e[2]])
    for i in range(3):
        sq = v[i] * v[i]
        # coefficient of any mask containing bit i twice cannot appear;
        # the pure second power along eps_i must vanish
        prod = jets.variable(np.zeros(1), [np.ones(1), np.zeros(1), np.zeros(1)])
        eps0 = prod[0]
        assert np.max(np.abs((eps0 * eps0).c)) == 0.0
        assert sq.c.shape == (8,)


def test_inverse_sqrt_pow_consistency():
    rng = np.random.RandomState(123)
    for _ in range(100):
        x = random_jet(rng, 3)
        x.c[0] = 1.0 + rng.rand()  # keep the value part positive
        one = x * (1.0 / x)
        assert abs(one.c[0] - 1.0) < 1.0e-12
        assert np.max(np.abs(one.c[1:])) < 1.0e-12
        s = jets.sqrt(x)
        assert np.max(np.abs((s * s).c - x.c)) < 1.0e-12
        assert np.max(np.abs((x**2).c - (x * x).c)) < 1.0e-12
        assert np.max(np.abs((x**0.5).c - s.c)) < 1.0e-12
        assert np.max(np.abs((x**-1).c - (1.0 / x).c)) < 1.0e-12


def test_exact_trilinear_partial():
    # f(t0,t1,t2) = (2+t0)(3+t1)(5+t2): the full mixed partial is exactly 1
    v = jets.variable(np.array([2.0, 3.0, 5.0]), [np.eye(3)[i] for i in range(3)])
    f = v[0] * v[1] * v[2]
    assert f.coeff(0b111) == 1.0
    assert f.value == 30.0


def test_sqrt_mixed_partial_closed_form():
    # f = sqrt(a + t0 + 2 t1), d2f/dt0 dt1 = -2/4 * (a)^(-3/2) at t=0
    a = 7.0
    v = jets.variable(np.array([a]), [np.array([1.0]), np.array([2.0])])
    f = jets.sqrt(v[0])
    expected = -0.25 * 2.0 * a ** (-1.5)
    assert abs(f.coeff(0b11) - expected) < 1.0e-14


def fd_third_mixed(fun, y, u, v, w, h=1.0e-2):
    # nested central differences for d^3 f(y + s u + t v + r w) / ds dt dr,
    # sharpened by one Richardson step (leading error O(h^2) -> O(h^4))
    def stencil(step):
        total = 0.0
        for su in (1, -1):
            for sv in (1, -1):
                for sw in (1, -1):
                    total += su * sv * sw * fun(y + step * (su * u + sv * v + sw * w))
        return total / (8.0 * step**3)

    return (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0


def test_third_partial_matches_finite_differences():
    rng = np.random.RandomState(2024)
    amat = rng.standard_normal((3, 3))
    amat = amat @ amat.T + 3.0 * np.eye(3)
    bvec = np.array([0.3, -0.2, 0.9])
    cvec = np.array([1.0, 0.5, -0.4])

    def fun(y):
        q = y @ amat @ y
        return q**1.5 / (4.0 + bvec @ y) + (cvec @ y) ** 4 / (y @ y)

    def fun_jet(vj):
        q = jets.quadform(amat, vj)
        lin = jets.dot(vj, Jet.constant(bvec, vj.order))
        c4 = jets.dot(vj, Jet.constant(cvec, vj.order)) ** 4
        return q**1.5 / (4.0 + lin) + c4 / jets.dot(vj, vj)

    for _ in range(20):
        y = rng.standard_normal(3) + np.array([3.0, 0.0, 0.0])
        u, v, w = rng.standard_normal((3, 3))
        vj = jets.variable(y, [u, v, w])
        exact = fun_jet(vj).coeff(0b111)
        approx = fd_third_mixed(fun, y, u, v, w)
        assert abs(exact - approx) < 1.0e-6 * max(1.0, abs(exact))


def test_batched_evaluation_matches_loop():
    rng = np.random.RandomState(7)
    ys = rng.standard_normal((5, 3)) + np.array([4.0, 0.0, 0.0])
    u, v = rng.standard_normal((2, 3))
    vj = jets.variable(ys, [u, v])
    batched = (jets.dot(vj, vj) ** 0.5).coeff(0b11)
    for k in range(5):
        single = jets.variable(ys[k], [u, v])
        val = (jets.dot(single, single) ** 0.5).coeff(0b11)
        assert abs(batched[k] - val) < 1.0e-15


def test_matvec_linear_map():
    rng = np.random.RandomState(55)
    mat = rng.standard_normal((3, 3))
    y = rng.standard_normal(3)
    u = rng.standard_normal(3)
    vj = jets.variable(y, [u])
    mapped = jets.matvec(mat, vj)
    assert np.max(np.abs(mapped.value - mat @ y)) < 1.0e-14
    assert np.max(np.abs(mapped.coeff(1) - mat @ u)) < 1.0e-14


def test_determinism_bitwise():
    rng = np.random.RandomState(99)
    x = random_jet(rng, 3)
    x.c[0] = 2.5
    first = ((x**1.5) / (x + 1.0)).c.tobytes()
    second = ((x**1.5) / (x + 1.0)).c.tobytes()
    assert first == second


def imports_jets(tree):
    """Whether a module of finslergeo imports finslergeo.jets, in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "finslergeo" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "finslergeo.jets" or name.startswith("finslergeo.jets.") for name in names):
            return True
    return False


def test_only_norms_imports_jets():
    # the jet route is the oracle for the closed-form tensors; only the
    # norms' generic tensors, which the tests call, may reach it
    src = os.path.dirname(finslergeo.__file__)
    importers = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                if imports_jets(ast.parse(handle.read())):
                    importers.add(name)
    assert importers <= {"norms.py"}
    for line in ("import finslergeo.jets", "from .jets import Jet", "from finslergeo import jets as j"):
        assert imports_jets(ast.parse(line))
    assert not imports_jets(ast.parse("from . import jetsam, lie"))
