"""Box states via the doubled circle: maps, coefficients, overlaps."""

import math
import os

import numpy as np
import pytest

from qrevival.box import (box_coefficients, box_norm_sq, box_overlap,
                          covering_map, fold_position, make_box_state,
                          theta_inv_map, theta_map)
from qrevival.circle import eval_state, evolve, time_scales
from qrevival.oracles import (QuadratureSpec, bounce_trajectory, quad_inner,
                              read_golden)
from qrevival.params import (DegenerateStateError, DomainError, PhasePoint,
                             PhysicalParams)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
L = math.pi


def test_covering_map_matches_bounce_oracle(rng):
    par = PhysicalParams(0.1, 1.3, 0.3, L)
    for _ in range(5):
        ph = PhasePoint(rng.uniform(-0.9 * L, 0.9 * L),
                        rng.uniform(0.5, 2.0) * (1 if rng.uniform() < 0.5
                                                 else -1))
        image = covering_map(ph, L)
        t_cl = 4.0 * L * par.mass / abs(ph.p)
        for t in (0.3, 2.7, 10.0 * t_cl + 0.12):
            moved = image.q_prime + image.p_prime * t / par.mass
            q_fold, sign = fold_position(moved, L)
            bounced = bounce_trajectory(ph, L, par.mass, t)
            assert abs(q_fold - bounced.q) < 1e-10
            assert abs(sign * image.p_prime - bounced.p) < 1e-12


def test_covering_map_rejects_outside():
    with pytest.raises(DomainError):
        covering_map(PhasePoint(1.5 * L, 1.0), L)


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


def test_theta_map_round_trip(rng):
    n = 256
    x = -L + 2.0 * L / n * np.arange(n)
    # A genuine box function: vanishes at the walls.
    phi = np.sin(3.0 * math.pi * (x - L) / (2.0 * L)) \
        + 0.4j * np.sin(math.pi * (x - L) / L)
    back = theta_map(theta_inv_map(phi, L), L)
    assert np.max(np.abs(back - phi)) < 1e-14


def test_theta_inv_map_oddness():
    n = 128
    x = -L + 2.0 * L / n * np.arange(n)
    phi = np.sin(2.0 * math.pi * (x - L) / (2.0 * L))
    ext = theta_inv_map(phi, L)
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
    folded = theta_map(evolved_circle, L)
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
