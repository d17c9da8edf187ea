"""Box states via the doubled circle: maps, coefficients, overlaps."""

import importlib
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrevival import circle
from qrevival.box import (_fold_box, _unfold, box_coefficient_table,
                          box_coefficients, box_norm_sq, box_overlap,
                          make_box_state)
from qrevival.circle import eval_state, evolve, time_scales
from qrevival.oracles import (QuadratureSpec, bounce_trajectory, quad_inner,
                              read_golden, theta_inv_map, theta_map)
from qrevival.params import (CapacityError, DegenerateStateError, PhasePoint,
                             PhysicalParams)

theta = importlib.import_module("qrevival.theta")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
L = math.pi
EPS = np.finfo(float).eps
PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def test_covering_map_matches_bounce_oracle(rng):
    par = PhysicalParams(0.1, 1.3, 0.3, L)
    for _ in range(5):
        ph = PhasePoint(rng.uniform(-0.9 * L, 0.9 * L),
                        rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5
                                                 else -1))
        q_prime, p_prime = _unfold(ph.q, ph.p, L)
        t_cl = 4.0 * L * par.mass / abs(ph.p)
        for t in (0.3, 2.7, 10.0 * t_cl + 0.12):
            moved = q_prime + p_prime * t / par.mass
            q_fold, sign = _fold_box(moved, L)
            bounced = bounce_trajectory(ph, L, par.mass, t)
            assert abs(q_fold - bounced.q) < 1e-10
            assert abs(sign * p_prime - bounced.p) < 1e-12


def test_fold_is_scalar_fold_position_elementwise(rng):
    q_prime = np.concatenate([rng.uniform(-9.0 * L, 9.0 * L, 200),
                              L * np.arange(-8, 9)])
    # Folding an array is folding each position on its own.
    q, sign = _fold_box(q_prime, L)
    assert [(float(a), float(b)) for a, b in zip(q, sign)] \
        == [tuple(map(float, _fold_box(float(v), L))) for v in q_prime]
    # Folding undoes unfolding, on both sheets.
    qb = rng.uniform(-L, L, 100)
    pb = rng.uniform(-2.0, 2.0, 100)
    back, sign = _fold_box(_unfold(qb, pb, L)[0], L)
    assert np.max(np.abs(back - qb)) < 1e-14
    assert np.array_equal(sign, np.where(pb >= 0.0, 1.0, -1.0))


def test_excluded_corner():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    with pytest.raises(DegenerateStateError):
        make_box_state(par, PhasePoint(L - 0.1, 0.0))
    # Same position with large momentum is fine.
    make_box_state(par, PhasePoint(L - 0.1, 2.0))


def test_coefficients_match_projection():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(0.4, 1.2)
    b = box_coefficients(par, ph)
    spec = QuadratureSpec(subdivisions=16)
    packets = make_box_state(par, ph)

    def state(x):
        # Antisymmetrized free packets, independent of the coefficients.
        return eval_state(packets, x, method="image_sum")

    for k in (1, 5, len(b) // 2):
        def basis(x, k=k):
            return np.sin(math.pi * k * (np.asarray(x) - L) / (2.0 * L)) \
                / math.sqrt(L)
        want = quad_inner(basis, state, (-L, L), spec)
        assert abs(b[k - 1] - want) < 1e-11


def test_unit_norm_away_from_corners():
    # alpha/l = 0.05, centered, moderate momentum: norm is 1 to 1e-10.
    par = PhysicalParams(0.05, 1.0, 0.05 * L, L)
    p = 3.0 * par.hbar / par.alpha
    assert abs(box_norm_sq(par, PhasePoint(0.0, p)) - 1.0) < 1e-10


def test_norm_vanishes_at_corner():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    assert box_norm_sq(par, PhasePoint(L, 0.0)) < 1e-12


def test_norm_against_golden():
    _, tol, rows = read_golden(os.path.join(GOLDEN, "norms.csv"))
    for row in rows:
        if row["domain"] != "box":
            continue
        par = PhysicalParams(float(row["hbar"]), float(row["mass"]),
                             float(row["alpha"]), float(row["half_length"]))
        got = box_norm_sq(par, PhasePoint(float(row["q"]), float(row["p"])))
        assert abs(got - float(row["norm_sq"])) < tol * got


def test_overlap_against_golden():
    _, tol, rows = read_golden(os.path.join(GOLDEN, "box_overlaps.csv"))
    for row in rows:
        par = PhysicalParams(float(row["hbar"]), float(row["mass"]),
                             float(row["alpha"]), float(row["half_length"]))
        a = PhasePoint(float(row["qa"]), float(row["pa"]))
        b = PhasePoint(float(row["qb"]), float(row["pb"]))
        want = complex(float(row["overlap_re"]), float(row["overlap_im"]))
        got = box_overlap(par, a, b, float(row["t"]))
        assert abs(got - want) < tol


def test_box_table_caps_stored_modes(monkeypatch):
    # Rows hold every mode 1..max|k|: at p = 200 that is 8065 modes,
    # although the mode window is only 131 wide.
    monkeypatch.setattr(theta, "MODE_CAP", 1000)
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    assert len(box_coefficient_table(par, 0.0, 1.0, L)[0]) == 105
    with pytest.raises(CapacityError, match="8065 modes"):
        box_coefficient_table(par, 0.0, 200.0, L)


def test_theta_map_round_trip(rng):
    n = 256
    x = -L + 2.0 * L / n * np.arange(n)
    # A genuine box function: vanishes at the walls.
    phi = np.sin(3.0 * math.pi * (x - L) / (2.0 * L)) \
        + 0.4j * np.sin(math.pi * (x - L) / L)
    back = theta_map(theta_inv_map(phi))
    assert np.max(np.abs(back - phi)) < 1e-14


def test_theta_inv_map_oddness():
    n = 128
    x = -L + 2.0 * L / n * np.arange(n)
    phi = np.sin(2.0 * math.pi * (x - L) / (2.0 * L))
    ext = theta_inv_map(phi)
    # Odd about the wall x = -l (doubled-grid index n).
    for j in range(1, n // 2):
        assert abs(ext[n + j] + ext[n - j]) < 1e-14


def test_theta_intertwines_evolution():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(0.3, 1.4)
    t = 0.8
    n = 2048
    x2 = -2.0 * L + 4.0 * L / n * np.arange(n)
    par2 = PhysicalParams(par.hbar, par.mass, par.alpha, 2.0 * L)
    from qrevival.circle import make_circle_state
    circ = make_circle_state(par2, PhasePoint(ph.q - L, ph.p))
    evolved_circle = eval_state(evolve(circ, t), x2)
    folded = theta_map(evolved_circle)
    box = make_box_state(par, ph)
    xb = -L + 2.0 * L / (n // 2) * np.arange(n // 2)
    evolved_box = eval_state(evolve(box, t), xb)
    # Theta(U_t upsilon) = (sqrt2/2) U_t omega.
    assert np.max(np.abs(folded - math.sqrt(2.0) / 2.0 * evolved_box)) \
        < 1e-12


def test_dual_engine_box(rng):
    par = PhysicalParams(0.05 * L, 1.0, 0.05 * L, L)
    ph = PhasePoint(0.3, 1.0)
    state = make_box_state(par, ph)
    scales = time_scales(par, ph.p, "box")
    x = rng.uniform(-L, L, size=128)
    for t in (0.0, 0.3 * scales.t_coll):
        st = evolve(state, t)
        a = eval_state(st, x, method="spectral")
        b = eval_state(st, x, method="image_sum")
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) < 1e-10


def test_full_box_revival():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(0.5, 1.4)
    t_rev = 16.0 * par.mass * L * L / (math.pi * par.hbar)
    auto = box_overlap(par, ph, ph, t_rev)
    norm = box_norm_sq(par, ph)
    assert abs(abs(auto) - norm) < 1e-11


def _grid(l, n, s):
    """n points of spacing 2l/n, the first s cells right of -l."""
    return -l + 2.0 * l / n * (np.arange(n) + s)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(l=st.floats(0.5, 4.0), hbar=st.floats(1e-3, 0.3),
       alpha_rel=st.floats(0.005, 0.24), q_rel=st.floats(-0.25, 0.25),
       p=st.floats(-3.0, 3.0), t=st.floats(0.0, 20.0),
       n=st.one_of(st.sampled_from([2, 3]), st.integers(2, 700)),
       s=st.sampled_from([0.0, 0.5, 0.3]))
@example(l=L, hbar=1e-3, alpha_rel=0.005, q_rel=0.2, p=1.0, t=0.37, n=3,
         s=0.0)
def test_fft_synthesis_matches_basis(l, hbar, alpha_rel, q_rel, p, t, n, s):
    # The sine pairs +-k fold onto 2n bins; K > 2n modes alias.  Labels
    # stay 3 alpha clear of the walls, outside the exclusion region.
    par = PhysicalParams(hbar, 1.0, alpha_rel * l, l)
    state = evolve(make_box_state(par, PhasePoint(q_rel * l, p)), t)
    x = _grid(l, n, s)
    m = circle._uniform_offset(x, l)
    assert m is not None and isinstance(m, int) == (s != 0.3)
    fft = eval_state(state, x)
    basis = circle._eval_basis(state, x)
    # Both round the phase of mode k to about |k| ulps.
    l1 = np.sum(np.abs(state.coefficients)) / math.sqrt(l)
    assert np.max(np.abs(fft - basis)) \
        <= 4.0 * EPS * (len(state.coefficients) + n) * l1


def _midpoint_reference(state, n):
    """The box state at the exact midpoints -l + (j + 1/2) 2l/n, summed
    in long double; the angle pi k (2j + 1 - 2n) / 2n is reduced mod
    2 pi in integers first."""
    k = state.k_values
    c = state.coefficients.astype(np.clongdouble)
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, 64):
        j = np.arange(lo, min(lo + 64, n))[:, None]
        r = (k * (2 * j + 1 - 2 * n)) % (4 * n)
        out[lo:lo + 64] = np.sin(PI_LD * r.astype(np.longdouble)
                                 / (2 * n)) @ c
    return out / np.sqrt(np.longdouble(state.params.half_length))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_fft_synthesis_against_long_double():
    par = PhysicalParams(2e-3, 1.0, 0.0025, L)
    state = evolve(make_box_state(par, PhasePoint(0.7, 1.0)), 0.37)
    assert 6000 < len(state.coefficients) < 6500
    n = 512
    want = _midpoint_reference(state, n)
    got = eval_state(state, _grid(L, n, 0.5))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
