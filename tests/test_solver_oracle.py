"""The two small solvers against frozen copies that ran every scalar through
numpy, bit for bit.

The oracles in `oracles.py` are the minimum enclosing circle and the dual
simplex as they were written before their scalar work moved onto Python
floats: one `np.hypot` call per distance, one containment test per point and
candidate, an array ratio test.  On every input below both sides must return
results whose floats have the same repr, or raise the same exception type with
the same message.  The point sets are chosen for the branches where a change
of candidate order, tie rule or pruning would show: duplicate and collinear
points (a triple with no circumcentre), cocircular points (equal radii to the
last bits), the mirrored sets of `axis_enclosing_ball`, and scales from 1e-150
to 1e150.  The simplex gets round bodies and polygons as well as random ones,
where many rows are active at once and ratios tie, and sequences: the
consecutive slices of one flow, whose pivots reuse the basis inverses the
slice before left in the simplex's memo, and independent bodies solved
after the memo is emptied, whose pivots invert every basis afresh.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mcfflow import _solvers, bodies, engine
from mcfflow._solvers import InfeasibleError
from mcfflow.bodies import MODE_AXISYM, MODE_CURVE

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

UNIT = st.floats(-1.0, 1.0)
SCALE = st.integers(-150, 150).map(lambda e: 10.0 ** e)


def _outcome(fn, *args):
    """repr of fn's result with every float written out, or its exception."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return type(err), str(err)
    return repr([v.tolist() if isinstance(v, np.ndarray) else float(v) for v in out])


# ---------------------------------------------------------------------------
# minimum enclosing circle
# ---------------------------------------------------------------------------

CLOUDS = st.lists(st.tuples(UNIT, UNIT), min_size=1, max_size=40)
# small integer grids: duplicates, collinear triples and cocircular quadruples
GRIDS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=30)


@st.composite
def collinear(draw):
    t = np.array(draw(st.lists(UNIT, min_size=1, max_size=20)))
    (ax, ay), (ox, oy) = draw(st.tuples(UNIT, UNIT)), draw(st.tuples(UNIT, UNIT))
    return np.column_stack([ox + t * ax, oy + t * ay])


@st.composite
def polygons(draw):
    # a regular k-gon, sometimes with points inside it
    k = draw(st.integers(3, 16))
    phase, radius = draw(UNIT), draw(st.floats(0.1, 1.0))
    t = phase + 2.0 * math.pi * np.arange(k) / k
    ring = np.column_stack([radius * np.cos(t), radius * np.sin(t)])
    inner = np.array(draw(st.lists(st.tuples(UNIT, UNIT), max_size=5)), dtype=float)
    return np.concatenate([ring, 0.5 * radius * inner.reshape(-1, 2)])


POINT_SETS = st.one_of(CLOUDS.map(np.array), GRIDS.map(lambda p: np.array(p, dtype=float)),
                       collinear(), polygons())


def _cover(smallest_cover, pts):
    """smallest_cover of the points as (support, circle) in Python floats."""
    found = smallest_cover([tuple(p) for p in pts])
    if found is None:
        return None
    support, circle = found
    return [tuple(map(float, p)) for p in support], tuple(map(float, circle))


@PROPERTY
@given(POINT_SETS, SCALE, st.tuples(UNIT, UNIT), st.integers(2, 4))
def test_support_update_equals_the_oracle(pts, scale, shift, size):
    # one support update on 2 to 4 of the points, reachable or not: a change
    # of candidate order or tie rule shows here on ties the iteration rarely meets
    pts = ((pts[:size] + np.array(shift)) * scale).tolist()
    if len(pts) < 2:
        pts = pts * 2
    with np.errstate(all="ignore"):
        assert _cover(_solvers._smallest_cover, pts) == _cover(oracles._smallest_cover,
                                                               np.array(pts))


@PROPERTY
@given(POINT_SETS, SCALE, st.tuples(UNIT, UNIT))
def test_enclosing_circle_equals_the_oracle(pts, scale, shift):
    pts = (pts + np.array(shift)) * scale
    assert _outcome(_solvers._enclosing_circle, pts) == _outcome(oracles.enclosing_circle, pts)


def _oracle_axis_ball(x, rsq):
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.asarray(rsq, dtype=float))
    c = oracles.enclosing_circle(np.column_stack([np.concatenate([x, x]),
                                                  np.concatenate([r, -r])]))
    return float(c[0]), float(c[2])


@PROPERTY
@given(st.lists(st.tuples(UNIT, st.floats(0.0, 1.0)), min_size=1, max_size=30), SCALE)
def test_axis_enclosing_ball_equals_the_oracle(orbits, scale):
    x = [scale * a for a, _ in orbits]
    rsq = [(scale * r) ** 2 for _, r in orbits]
    assert (_outcome(_solvers.axis_enclosing_ball, x, rsq)
            == _outcome(_oracle_axis_ball, x, rsq))


def test_enclosing_circle_bad_input_matches_the_oracle():
    for pts in (np.zeros((0, 2)), np.zeros(3), [[0.0, math.nan]], [[1.0, 2.0], [math.inf, 0.0]]):
        assert (_outcome(_solvers._enclosing_circle, pts)
                == _outcome(oracles.enclosing_circle, pts))


# ---------------------------------------------------------------------------
# Chebyshev centres by the dual simplex
# ---------------------------------------------------------------------------

def _oracle_centre(mode, nu, h):
    """chebyshev_center_curve or _axis, over the oracle's dual simplex."""
    m = len(h)
    if mode == MODE_CURVE:
        return oracles.max_inscribed(nu, h, [0, m // 3, 2 * m // 3])
    a, r = oracles.max_inscribed(np.asarray(nu, dtype=float)[:, None], h, [0, m - 1])
    return float(a[0]), r


def _centre(mode, nu, h):
    A = _solvers.constraint_matrix(nu)
    if mode == MODE_CURVE:
        return _solvers.chebyshev_center_curve(A, h)
    return _solvers.chebyshev_center_axis(A, h)


@st.composite
def supports(draw):
    """(mode, normals, support values): a random body, a round one (every row
    active at the optimum) or a polygon with integer vertices thickened by the
    unit ball (many rows active, ratio ties), translated and scaled; in the
    axisymmetric case the polygon lies in the meridian half-plane."""
    mode = draw(st.sampled_from([MODE_CURVE, MODE_AXISYM]))
    N, seed = draw(st.sampled_from([16, 32, 96])), draw(st.integers(0, 2 ** 31 - 1))
    kind = draw(st.sampled_from(["random", "round", "polygon"]))
    ang = bodies.sample_angles(mode, N if mode == MODE_CURVE else N + 1)
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    if kind == "random":
        amplitude = draw(st.floats(0.05, 0.9))
        h = (bodies.random_convex_curve(N, seed, amplitude=amplitude) if mode == MODE_CURVE
             else bodies.random_convex_profile(draw(st.integers(2, 4)), N, seed,
                                               amplitude=amplitude)).h
    elif kind == "round":
        h = np.ones(len(ang))
    else:
        vertices = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                 min_size=1, max_size=8))
        h = (normals @ np.array(vertices, dtype=float).T).max(axis=1) + 1.0
    shift = draw(st.tuples(UNIT, UNIT)) if mode == MODE_CURVE else draw(UNIT)
    scale = 10.0 ** draw(st.integers(-100, 100))
    nu = normals if mode == MODE_CURVE else normals[:, 0]
    return mode, nu, scale * (h + bodies.shift_support(mode, h, shift))


@PROPERTY
@given(supports())
def test_chebyshev_centre_equals_the_oracle(case):
    mode, nu, h = case
    assert _outcome(_centre, mode, nu, h) == _outcome(_oracle_centre, mode, nu, h)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(supports(), st.data())
def test_chebyshev_centre_on_non_finite_input_matches_the_oracle(case, data):
    # a non-finite support value, or a non-finite normal entry, at any sample
    mode, nu, h = case
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    at = data.draw(st.integers(0, len(h) - 1))
    if data.draw(st.booleans()):
        h = h.copy()
        h[at] = bad
        assert _outcome(_centre, mode, nu, h) == _outcome(_oracle_centre, mode, nu, h)
    else:
        # refused by its row before any pivot, where the oracle pivoted on it
        nu = nu.copy()
        nu[(at, data.draw(st.integers(0, 1))) if mode == MODE_CURVE else at] = bad
        assert _outcome(_centre, mode, nu, h) == (InfeasibleError,
                                                  f"non-finite normal in row {at}")


# quadrilaterals whose pivots meet equal ratios lam_i / mu_i on N = 16 rows
RATIO_TIES = [((-2, -2), (-1, 0), (0, 0), (2, -2)), ((-2, -1), (-1, -2), (0, 2), (2, 0)),
              ((-2, 0), (-1, 2), (0, 2), (2, 0))]


@pytest.mark.parametrize("vertices", RATIO_TIES)
def test_ratio_ties_match_the_oracle(vertices):
    ang = bodies.sample_angles(MODE_CURVE, 16)
    nu = np.column_stack([np.cos(ang), np.sin(ang)])
    h = (nu @ np.array(vertices, dtype=float).T).max(axis=1) + 1.0
    assert _outcome(_centre, MODE_CURVE, nu, h) == _outcome(_oracle_centre, MODE_CURVE, nu, h)


def test_chebyshev_centre_on_empty_input_matches_the_oracle():
    for mode, nu in ((MODE_CURVE, np.zeros((0, 2))), (MODE_AXISYM, np.zeros(0))):
        h = np.zeros(0)
        assert _outcome(_centre, mode, nu, h) == _outcome(_oracle_centre, mode, nu, h)


# ---------------------------------------------------------------------------
# sequences: the memo of basis inverses hit and missed
# ---------------------------------------------------------------------------

def _counted_inverses(monkeypatch):
    """{"hits", "misses"}: the basis inverses the memo held and those it had
    to compute, counted from here on."""
    counts = {"hits": 0, "misses": 0}
    inverse = _solvers._inverse

    def counted(B):
        counts["hits" if B.tobytes() in _solvers._INVERSES else "misses"] += 1
        return inverse(B)

    monkeypatch.setattr(_solvers, "_inverse", counted)
    return counts


def _plan_normals(mode, m):
    """The normals of the grid plan whose matrix `chebyshev_ball` hands the
    solver on the grid of m samples."""
    plan = bodies.grid_plan(mode, m)
    return plan.normals if mode == MODE_CURVE else plan.cos


def _flow_supports():
    """(mode, h) of the consecutive slices of a random curve run and of a
    5%-perturbed sphere of radius 20 run from t0 = -100, each slice as stored
    and moved by a fixed shift, as `type_two_rescale` moves its window."""
    runs = [(bodies.random_convex_curve(64, 7, amplitude=0.5), -1.0,
             engine.FlowControls(cfl=0.4, max_dt=0.01, stop_rho_plus=0.1, snapshot_stride=8),
             (0.05, -0.02)),
            (bodies.random_convex_profile(2, 32, 11, modes=4, amplitude=0.05, radius=20.0),
             -100.0, engine.FlowControls(cfl=0.5, max_dt=1.0, stop_rho_plus=1.0,
                                         snapshot_stride=8), 0.3)]
    cases = []
    for body, t0, controls, shift in runs:
        for sl in engine.evolve(body, t0, controls).slices:
            h = sl.body.h
            cases += [(body.mode, h), (body.mode, h + bodies.shift_support(body.mode, h, shift))]
    return cases


def test_consecutive_slices_equal_the_oracle(monkeypatch):
    # through chebyshev_ball: the grid plan's prebuilt constraint matrix, and
    # bases the slice before inverted
    counts = _counted_inverses(monkeypatch)
    for mode, h in _flow_supports():
        nu = _plan_normals(mode, len(h))
        assert (_outcome(bodies.chebyshev_ball, mode, h)
                == _outcome(_oracle_centre, mode, nu, h))
    assert counts["hits"] > 2 * counts["misses"] > 0


def test_independent_bodies_equal_the_oracle(monkeypatch):
    counts = _counted_inverses(monkeypatch)
    rng = np.random.default_rng(5)
    for seed in range(60):
        if seed % 3:
            mode, h = MODE_CURVE, bodies.random_convex_curve(16 * (1 + seed % 4), seed).h
        else:
            mode, h = MODE_AXISYM, bodies.random_convex_profile(2 + seed % 2, 40, seed).h
        shift = rng.uniform(-0.3, 0.3, size=2) if mode == MODE_CURVE else rng.uniform(-0.3, 0.3)
        h = h + bodies.shift_support(mode, h, shift)
        nu = _plan_normals(mode, len(h))
        _solvers._INVERSES.clear()
        hits = counts["hits"]
        assert (_outcome(bodies.chebyshev_ball, mode, h)
                == _outcome(_oracle_centre, mode, nu, h))
        assert counts["hits"] == hits
    assert counts["misses"] > 60
