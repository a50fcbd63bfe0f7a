"""Seeded scenario mixes for the finslergeo benchmark.

Each workload is a fixed list of slots.  The seed only draws the numbers
inside a slot (norm data, initial vectors, base points); the task, the
group, the norm kind and every size parameter (horizon, step, stride,
solver seed count) belong to the slot.  So two seeds give different
inputs that cost about the same work, and a run-to-run spread measures
the host rather than the draw.

Every item carries the verdict the scenario must reach, the fact from
the theory that fixes that verdict, and where one exists a closed-form
oracle for a numerical output.  None of them is read off a run of the
code.  The facts used below, with the 0-based basis e1, e2, e3:

* Heisenberg algebra: [e1, e2] = e3, so [X, e1] = -X2 e3, [X, e2] = X1 e3
  and [X, e3] = 0.  For a = I and a Randers covector b the geodesic
  criterion g_X(X, [X, e_j]) = F(X) (X3 / alpha(X) + b3) (-X2, X1, 0)_j
  vanishes exactly on the e3-axis and on the cone X3 = -b3 alpha(X),
  which is the e1e2-plane when b3 = 0.  For any Euclidean a it vanishes on
  the e3-axis and on the plane (a X)_3 = 0.
* su(2) with a = I is bi-invariant: ad_X is skew, every X is a geodesic
  vector and the geodesics through e are the one-parameter subgroups
  exp(t y0), straight lines t y0 in exponential coordinates.  With
  a = diag(l1, l2, l3), l distinct, the criterion (a X) x X = 0 holds only
  on the principal axes (Euler's steady rotations).  With a = I and a
  Randers b it reduces to b . (X x e_j) = 0, so X is parallel to b.
* The Minkowski-Lie identity (and the naturally-reductive one with m = g)
  is the derivative of Ad-invariance of the norm.  No norm on H3 is
  Ad-invariant: Ad(exp(t e1)) e2 = e2 + t e3 is unbounded in t.  On
  u(2) = su(2) + R, a = lam I + mu e4 e4 with b along the centre e4 is
  Ad-invariant, so it passes.
* Riemannian metrics are Berwald.  A Randers metric is Berwald exactly
  when b is parallel for alpha (Hashiguchi-Ichijyo).  On bi-invariant
  SU(2) the Levi-Civita connection is nabla_X Y = [X, Y] / 2, so a nonzero
  left-invariant b is never parallel.
* S-curvature of a Randers metric with b of constant alpha-length
  (Chern-Shen, Riemann-Finsler Geometry, ch. 7):
  S = (n + 1) (e00 / (2F) - s0), e00 = r00 + 2 beta s0.  It vanishes for
  every Riemannian metric, and for a left-invariant Randers metric it
  vanishes exactly when b is Killing (Deng, "The S-curvature of
  homogeneous Randers spaces", Diff. Geom. Appl. 2009).  On H3 with a = I
  and b = c e3 (central, hence Killing) S = 0.  On SU(2) with a = I every
  left-invariant b is Killing, S = 0.  On H3 with a = I and b = c e1 the
  Levi-Civita connection gives r_23 = r_32 = -c/2 and s = 0, so
  S(e, y) = -2 c y2 y3 / F(y), nonzero whenever y2 y3 != 0.
"""

import random

WORKLOADS = ("orbits", "zero-sets", "distortion")

STEP = 1.0e-3
# 50 RK4 steps: the chart spray's share of the time does not depend on it
ORBIT_T = 0.05
# the one long orbit of the mix, its slowest slot
LONG_ORBIT_T = 0.25
# the report tolerance of the orbit check; RK4 at STEP keeps the chart
# error of the spray far below it
HOMOGENEOUS_TOL = 1.0e-5
# closed-form endpoints hold to RK4 error plus the spray's finite
# differences in x, both orders of magnitude below this
ENDPOINT_TOL = 1.0e-8
# the S stencil is O(dt^2) accurate with dt = 1e-3
S_START_TOL = 1.0e-4
S_TOL = 1.0e-3

_U2_CONSTANTS = [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [3, 1, 2, 1.0]]


def _r(value):
    return round(float(value), 6)


def _vec(values):
    return [_r(v) for v in values]


def _identity(n=3):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _diag(values):
    n = len(values)
    return [[_r(values[i]) if i == j else 0.0 for j in range(n)] for i in range(n)]


def _direction(rng, dim=3):
    """A unit vector with no component below 0.15 in magnitude."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        length = sum(c * c for c in v) ** 0.5
        v = [c / length for c in v]
        if min(abs(c) for c in v) >= 0.15:
            return v


def _scaled(rng, low, high, dim=3):
    length = rng.uniform(low, high)
    return _vec([length * c for c in _direction(rng, dim)])


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _randers_su2_b(rng):
    # |b| <= 0.35 keeps F(y0) / (1 - |b|) * T below pi for |y0| <= 0.8,
    # so the path stays where the exponential chart is the distance
    return _scaled(rng, 0.2, 0.35)


def _randers(a, b):
    return {"kind": "randers", "a": a, "b": b}


def _euclidean(a):
    return {"kind": "euclidean", "a": a}


def _item(scenario, expect, basis, oracle=None):
    return {"scenario": scenario, "expect": expect, "basis": basis, "oracle": oracle}


# ---------------------------------------------------------------- orbits


# Each mix repeats a block of slots, drawing new numbers every time, so a
# run averages the cost over several draws.  Scenarios are short (tens of
# ms to 0.5 s), so every slot runs many times within a run; see
# hostspeed.py for why that matters on a shared host.


def _orbits(rng):
    # four blocks of six 50-step slots, then one 250-step orbit: the
    # slowest slot, run once per pass, so the tail percentile of a run
    # (ten runs beyond it) falls among its runs
    items = [item for _ in range(4) for item in _orbit_block(rng)]
    items.append(_su2_line(rng, LONG_ORBIT_T))
    return items


def _su2_line(rng, horizon):
    y0 = _scaled(rng, 0.5, 0.9)
    return _item(
        {
            "task": "integrate-geodesic",
            "model": "su2",
            "norm": _euclidean(_identity()),
            "params": {"y0": y0, "T": horizon, "step": STEP},
        },
        {"samples": int(round(horizon / STEP)) + 1},
        "bi-invariant SU(2): the geodesic from (e, y0) is exp(t y0), the line t y0",
        {"kind": "endpoint", "x": [horizon * c for c in y0], "y": y0, "tol": ENDPOINT_TOL},
    )


def _orbit_block(rng):
    items = [_su2_line(rng, ORBIT_T)]
    samples = int(round(ORBIT_T / STEP)) + 1

    items.append(
        _item(
            {
                "task": "integrate-geodesic",
                "model": "su2",
                "norm": _randers(_identity(), _randers_su2_b(rng)),
                "params": {"y0": _scaled(rng, 0.5, 0.8), "T": ORBIT_T, "step": STEP},
            },
            {"samples": samples},
            "F is a first integral of the geodesic flow; the F-drift verdict passes",
        )
    )

    b_plane = _vec([_sign(rng) * rng.uniform(0.2, 0.4), rng.uniform(-0.2, 0.2), 0.0])
    if rng.random() < 0.5:
        y0 = _vec([_sign(rng) * rng.uniform(0.3, 0.7), _sign(rng) * rng.uniform(0.3, 0.7), 0.0])
    else:
        y0 = _vec([0.0, 0.0, _sign(rng) * rng.uniform(0.5, 0.9)])
    items.append(
        _item(
            {
                "task": "integrate-geodesic",
                "model": "heisenberg3",
                "norm": _randers(_identity(), b_plane),
                "params": {"y0": y0, "T": ORBIT_T, "step": STEP},
            },
            {"samples": samples},
            "H3, a = I, b3 = 0: the e1e2-plane and the e3-axis are geodesic vectors, "
            "so the geodesic from (e, y0) is exp(t y0) = t y0",
            {"kind": "endpoint", "x": [ORBIT_T * c for c in y0], "y": y0, "tol": ENDPOINT_TOL},
        )
    )

    items.append(
        _item(
            {
                "task": "check-homogeneous",
                "model": "su2",
                "norm": _euclidean(_identity()),
                "params": {
                    "X": _scaled(rng, 0.5, 0.9),
                    "T": ORBIT_T,
                    "step": STEP,
                    "tol": HOMOGENEOUS_TOL,
                    "expect_passed": True,
                },
            },
            {"check_passed": True},
            "bi-invariant SU(2): every X is a geodesic vector",
        )
    )

    b = _randers_su2_b(rng)
    length = rng.uniform(0.5, 0.8) * _sign(rng)
    b_len = sum(c * c for c in b) ** 0.5
    items.append(
        _item(
            {
                "task": "check-homogeneous",
                "model": "su2",
                "norm": _randers(_identity(), b),
                "params": {
                    "X": _vec([length * c / b_len for c in b]),
                    "T": ORBIT_T,
                    "step": STEP,
                    "tol": HOMOGENEOUS_TOL,
                    "expect_passed": True,
                },
            },
            {"check_passed": True},
            "SU(2), a = I, Randers b: X parallel to b is a geodesic vector",
        )
    )

    norm = _randers(_identity(), _vec([rng.uniform(-0.3, 0.3), _sign(rng) * rng.uniform(0.2, 0.3), 0.0]))
    shape = rng.choice(("plane", "axis", "off"))
    if shape == "plane":
        X = [_sign(rng) * rng.uniform(0.3, 0.7), _sign(rng) * rng.uniform(0.3, 0.7), 0.0]
    elif shape == "axis":
        X = [0.0, 0.0, _sign(rng) * rng.uniform(0.5, 0.9)]
    else:
        X = [_sign(rng) * rng.uniform(0.3, 0.6), _sign(rng) * rng.uniform(0.3, 0.6), _sign(rng) * rng.uniform(0.3, 0.6)]
    geodesic = shape != "off"
    items.append(
        _item(
            {
                "task": "check-homogeneous",
                "model": "heisenberg3",
                "norm": norm,
                "params": {
                    "X": _vec(X),
                    "T": ORBIT_T,
                    "step": STEP,
                    "tol": HOMOGENEOUS_TOL,
                    "expect_passed": geodesic,
                },
            },
            {"check_passed": geodesic},
            f"H3, a = I, Randers b3 = 0: X on the {shape} "
            + ("is a geodesic vector" if geodesic else "has criterion residual X3 (-X2, X1, 0) != 0"),
        )
    )
    return items


# ------------------------------------------------------------- zero-sets


def _gv(model, norm, samples, branches, all_geodesic, basis):
    return _item(
        {
            "task": "geodesic-vectors",
            "model": model,
            "norm": norm,
            "params": {
                "samples": samples,
                "expect_branches": branches,
                "expect_all_geodesic": all_geodesic,
            },
        },
        {"branch_count": branches, "all_sampled_vectors_geodesic": all_geodesic},
        basis,
    )


def _check(task, model, norm, passed, basis):
    return _item(
        {
            "task": task,
            "model": model,
            "norm": norm,
            "params": {"samples": 200, "expect_passed": passed},
        },
        {"check_passed": passed},
        basis,
    )


def _berwald(model, norm, x, berwald, basis):
    return _item(
        {
            "task": "berwald",
            "model": model,
            "norm": norm,
            "params": {"x": x, "samples": 8, "expect_berwald": berwald},
        },
        {"is_berwald": berwald},
        basis,
    )


def _zero_sets(rng):
    return [item for _ in range(2) for item in _zero_set_block(rng)]


def _zero_set_block(rng):
    # Seed counts are per slot, so the O(N^2) dedup cost is the same for
    # every seed; together they span 1024..4096.  The two sphere zero
    # sets at 2048 seeds (all converge, one cluster) are the costliest
    # slots, about 0.5 s each, and with four per mix the tail percentile
    # (ten runs beyond it) falls among their runs.  The curve zero sets
    # at 1024 take 0.15-0.3 s and the point zero sets 0.04-0.15 s.  The
    # H3 Randers zero sets leave a few of their 1024 seeds unconverged for
    # almost every draw, so Newton runs all its iterations; fewer seeds
    # would make that, and the cost, depend on the draw.  Seven cheap
    # checks (1-2 ms) below three Berwald slots (2-3 ms) and seven solves
    # put the median run on the middle Berwald slot.
    lam = sorted(rng.uniform(lo, hi) for lo, hi in ((0.8, 1.2), (1.6, 2.2), (2.6, 3.4)))
    rng.shuffle(lam)
    h3_a = _diag([rng.uniform(0.7, 1.5) for _ in range(3)])
    h3_a[0][1] = h3_a[1][0] = _r(rng.uniform(-0.2, 0.2))
    c = _sign(rng) * rng.uniform(0.2, 0.4)
    mu = rng.uniform(0.5, 2.0)
    items = [
        _gv("su2", _euclidean(_identity()), 2048, 1, True,
            "bi-invariant SU(2): every vector is geodesic, one connected zero set"),
        _check("check-minkowski-lie", "su2", _euclidean(_identity()), True,
               "su(2) with a = I: ad_X is skew, the metric is bi-invariant"),
        _gv("su2", _euclidean(_diag([mu] * 3)), 2048, 1, True,
            "SU(2), a = mu I, a multiple of the bi-invariant metric: every vector is geodesic"),
        _check("check-minkowski-lie", "su2", _euclidean(_diag([mu] * 3)), True,
               "su(2) with a = mu I: ad_X is skew for a multiple of the bi-invariant metric"),
        _gv("heisenberg3", _euclidean(h3_a), 1024, 2, False,
            "H3 Euclidean with a13 = a23 = 0: the great circle X3 = 0 and the poles +-e3"),
        _check("check-minkowski-lie", "heisenberg3", _euclidean(h3_a), False,
               "no norm on H3 is Ad-invariant: Ad(exp(t e1)) e2 = e2 + t e3"),
        _gv("heisenberg3", _randers(_identity(), _vec([0.0, 0.0, c])), 1024, 2, False,
            "H3, a = I, b = c e3: the circle X3 = -c and the poles +-e3"),
        _check("check-minkowski-lie",
               {"dim": 4, "structure_constants": _U2_CONSTANTS},
               _randers(_diag([lam[0]] * 3 + [lam[1]]), _vec([0.0, 0.0, 0.0, _sign(rng) * rng.uniform(0.2, 0.4)])),
               True,
               "u(2) = su(2) + R, a = lam I + mu e4 e4, b on the centre: Ad-invariant"),
        _gv("heisenberg3",
            _randers(_identity(), _vec([_sign(rng) * rng.uniform(0.2, 0.4), rng.uniform(-0.2, 0.2), 0.0])),
            1024, 2, False,
            "H3, a = I, b3 = 0: the great circle X3 = 0 and the poles +-e3"),
        _check("check-nat-reductive", "su2", _euclidean(_identity()), True,
               "su(2), m = g, a = I: the identity is the bi-invariance identity"),
        _gv("su2", _euclidean(_diag(lam)), 1024, 3, False,
            "SU(2), a = diag with distinct entries: the three principal axes"),
        _check("check-nat-reductive", "heisenberg3", _randers(_identity(), _scaled(rng, 0.2, 0.4)), False,
               "H3, m = g: the identity is Ad-invariance, which no norm on H3 has"),
        _gv("su2", _randers(_identity(), _randers_su2_b(rng)), 4096, 1, False,
            "SU(2), a = I, Randers b: the pair +-b, one branch after antipodal merging"),
        _check("check-nat-reductive", "su2", _randers(_identity(), _randers_su2_b(rng)), False,
               "SU(2), m = g, a = I, b != 0: Ad rotates y, so F(Ad y) != F(y)"),
        _berwald("heisenberg3", _euclidean(h3_a), _scaled(rng, 0.1, 0.5), True,
                 "Riemannian metrics are Berwald"),
        _berwald("su2", _randers(_identity(), _randers_su2_b(rng)), _scaled(rng, 0.1, 0.5), False,
                 "bi-invariant SU(2): nabla_X b = [X, b] / 2 != 0, so b is not parallel"),
        _berwald("su2", _euclidean(_diag(lam)), _scaled(rng, 0.1, 0.5), True,
                 "Riemannian metrics are Berwald"),
    ]
    return items


# ------------------------------------------------------------ distortion


def _s_item(model, norm, y0, T, stride, vanishing, basis, oracle=None):
    return _item(
        {
            "task": "s-curvature",
            "model": model,
            "norm": norm,
            "params": {
                "y0": y0,
                "T": T,
                "step": STEP,
                "stride": stride,
                "tol": S_TOL,
                "expect_vanishing": vanishing,
            },
        },
        {"vanishing": vanishing},
        basis,
        oracle,
    )


def _distortion(rng):
    return [item for _ in range(4) for item in _distortion_block(rng)]


def _distortion_block(rng):
    # T / (STEP * stride) = 10 in every slot: 11 sigma quadratures per
    # path, while the integrated horizon varies from 0.02 to 0.05
    c = _r(_sign(rng) * rng.uniform(0.2, 0.4))
    y0 = _vec([rng.uniform(-0.6, 0.6), _sign(rng) * rng.uniform(0.3, 0.6), _sign(rng) * rng.uniform(0.3, 0.6)])
    b1 = _randers(_identity(), [c, 0.0, 0.0])
    alpha = sum(v * v for v in y0) ** 0.5
    s_start = -2.0 * c * y0[1] * y0[2] / (alpha + c * y0[0])
    return [
        _s_item("heisenberg3", _euclidean(_diag([rng.uniform(0.7, 1.5) for _ in range(3)])),
                _scaled(rng, 0.5, 0.9), 0.02, 2, True, "Riemannian metrics have S = 0"),
        _s_item("su2", _euclidean(_diag([rng.uniform(0.7, 1.5) for _ in range(3)])),
                _scaled(rng, 0.5, 0.9), 0.03, 3, True, "Riemannian metrics have S = 0"),
        _s_item("heisenberg3", _randers(_identity(), [0.0, 0.0, _r(_sign(rng) * rng.uniform(0.2, 0.4))]),
                _scaled(rng, 0.5, 0.9), 0.05, 5, True, "H3, b along the centre e3 is Killing, so S = 0 (Deng)"),
        _s_item("heisenberg3", b1, y0, 0.02, 2, False,
                "H3, a = I, b = c e1 is not Killing: S(e, y) = -2 c y2 y3 / F(y) != 0",
                {"kind": "s_at_start", "value": s_start, "tol": S_START_TOL}),
        _s_item("su2", _randers(_identity(), _randers_su2_b(rng)),
                _scaled(rng, 0.5, 0.8), 0.03, 3, True,
                "bi-invariant SU(2): every left-invariant b is Killing, so S = 0 (Deng)"),
    ]


_GENERATORS = {"orbits": _orbits, "zero-sets": _zero_sets, "distortion": _distortion}


def generate(workload: str, seed: int) -> list:
    """The workload's scenario mix: a pure function of (workload, seed).

    Returns a list of items {"scenario", "expect", "basis", "oracle"}.
    The scenario dicts are what the program receives; the rest stays on
    the benchmark side.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; available: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    items = _GENERATORS[workload](rng)
    for item in items:
        # drives the random samples of the algebraic checks
        item["scenario"]["seed"] = rng.randrange(1 << 16)
    return items
