"""The periodized-overlap kernel behind every circle and box overlap
and norm.

Closed forms are checked against the quadrature oracle, including the
large spreading factors of the revival schedules, and against the mode
sums of the evolved spectral states; the blocked and batched evaluation
paths are checked against unblocked, pointwise ones.
"""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival.box import (box_coefficients, box_norm_sq, box_overlap,
                          domain_overlap, make_box_state)
from qrevival.circle import circle_norm_sq, circle_overlap, evolve, \
    make_circle_state
from qrevival.husimi import (DensityOperatorMixture, husimi, husimi_grid,
                             make_schedule)
from qrevival.oracles import QuadratureSpec, circle_state_callable, \
    quad_inner
from qrevival.params import DegenerateStateError, PhasePoint, \
    PhysicalParams

# The module, not the theta function the package re-exports.
theta = importlib.import_module("qrevival.theta")
L = math.pi
SPEC = QuadratureSpec(subdivisions=16)
CASES = settings(max_examples=20, deadline=None, derandomize=True,
                 database=None)


def box_state_callable(params, phase, t=0.0):
    """Time-t box coherent state from its sine coefficients."""
    b = box_coefficients(params, phase)
    l = params.half_length
    k = np.arange(1, len(b) + 1)
    bk = b * np.exp(-1j * params.hbar * t * (math.pi * k / (2.0 * l)) ** 2
                    / (2.0 * params.mass))

    def fn(x):
        x = np.asarray(x, dtype=float)
        return (np.sin(math.pi * np.outer(x - l, k) / (2.0 * l)) @ bk) \
            / math.sqrt(l)

    return fn


def oracle_overlap(params, domain, a, b, t):
    l = params.half_length
    if domain == "circle":
        return quad_inner(circle_state_callable(params, a),
                          circle_state_callable(params, b, t), (-l, l), SPEC)
    return quad_inner(box_state_callable(params, a),
                      box_state_callable(params, b, t), (-l, l), SPEC)


def closed_overlap(params, domain, a, b, t):
    if domain == "circle":
        return circle_overlap(params, a, b, t)
    return box_overlap(params, a, b, t)


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_overlap_at_revival_spreading(domain):
    # Level 0 of the c = 1/2 revival schedule: gamma ~ 700 on the circle
    # and ~ 2800 in the box.
    base = PhysicalParams(0.05, 1.0, 0.3 * math.sqrt(0.05), L)
    level = make_schedule(Fraction(1, 2), 0.0, base, 3, domain,
                          p_ref=2.0).levels[0]
    par, t = level.params, level.t
    gamma = par.gamma(t)
    assert 650.0 < gamma < 750.0 if domain == "circle" \
        else 2700.0 < gamma < 2900.0
    for a, b in ((PhasePoint(0.3, 2.0), PhasePoint(-1.1, 1.9)),
                 (PhasePoint(-2.0, -1.5), PhasePoint(2.5, 2.2))):
        got = closed_overlap(par, domain, a, b, t)
        want = oracle_overlap(par, domain, a, b, t)
        assert abs(got - want) < 1e-10


@CASES
@given(alpha_rel=st.floats(0.05, 0.2), l=st.floats(1.0, 4.0),
       t=st.floats(0.0, 50.0), q_rel=st.floats(-0.95, 0.95),
       qb_rel=st.floats(-0.95, 0.95), p=st.floats(-2.0, 2.0),
       pb=st.floats(-2.0, 2.0), domain=st.sampled_from(["circle", "box"]))
def test_overlap_against_quadrature(alpha_rel, l, t, q_rel, qb_rel, p, pb,
                                    domain):
    par = PhysicalParams(0.05, 1.0, alpha_rel * l, l)
    a = PhasePoint(q_rel * l, p)
    b = PhasePoint(qb_rel * l, pb)
    got = closed_overlap(par, domain, a, b, t)
    want = oracle_overlap(par, domain, a, b, t)
    assert abs(got - want) < 1e-10


def _mixture(domain, t):
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    atoms = ((0.4, PhasePoint(0.2, 1.0)), (0.3, PhasePoint(-1.5, 0.7)),
             (0.2, PhasePoint(2.4, -1.2)), (0.1, PhasePoint(-0.3, 1.6)))
    return DensityOperatorMixture(par, domain, atoms).evolved(t)


def _grid(nq, npv):
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    return q, np.linspace(-2.0, 2.0, npv)


@pytest.mark.parametrize("domain", ["circle", "box"])
@pytest.mark.parametrize("cap", [1, 200])
def test_blocked_husimi_grid_matches_single_block(domain, cap, monkeypatch):
    rho = _mixture(domain, 3.7)
    q, p = _grid(40, 5)
    whole = husimi_grid(rho, q, p)
    blocks = []
    image_sum = theta._image_sum

    def counting(*args):
        blocks.append(args)
        return image_sum(*args)

    monkeypatch.setattr(theta, "_image_sum", counting)
    monkeypatch.setattr(theta, "BLOCK_CAP", cap)
    blocked = husimi_grid(rho, q, p)
    calls_per_column = 1 if domain == "circle" else 2
    assert len(blocks) > calls_per_column * len(p)
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(whole)


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_husimi_grid_batching_agrees_to_rounding(domain):
    rho = _mixture(domain, 1.3)
    q, p = _grid(40, 7)
    grid = husimi_grid(rho, q, p)
    pointwise = np.array([[husimi(rho, PhasePoint(float(qi), float(pj)))
                           for pj in p] for qi in q])
    assert np.max(np.abs(grid - pointwise)) <= 1e-15 * np.max(grid)


@pytest.mark.parametrize("cap", [2**22, 40])
def test_broadcast_labels_match_scalar_calls(cap, monkeypatch):
    # Second labels spread over five periods, so each block needs its
    # own image window.
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    qb = np.linspace(-5.0 * L, 5.0 * L, 23)
    pb = np.array([0.5, 1.5])
    scalar = np.array([[theta.periodized_overlap(par, 0.2, 1.0, float(x),
                                                 float(y), 2.0, 2.0 * L)
                        for y in pb] for x in qb])
    assert np.ndim(scalar[0, 0]) == 0
    monkeypatch.setattr(theta, "BLOCK_CAP", cap)
    grid = theta.periodized_overlap(par, 0.2, 1.0, qb[:, None], pb, 2.0,
                                    2.0 * L)
    assert grid.shape == (len(qb), len(pb))
    assert np.max(np.abs(grid - scalar)) <= 1e-15 * np.max(np.abs(scalar))


@CASES
@given(hbar=st.floats(0.02, 0.3), alpha_rel=st.floats(0.02, 0.24),
       l=st.floats(0.5, 4.0), q_rel=st.floats(-1.0, 1.0),
       p=st.floats(-3.0, 3.0), domain=st.sampled_from(["circle", "box"]))
def test_norm_equals_coefficient_norm(hbar, alpha_rel, l, q_rel, p, domain):
    # The image-sum norm against sum |c_k|^2 of the spectral state.
    par = PhysicalParams(hbar, 1.0, alpha_rel * l, l)
    phase = PhasePoint(q_rel * l, p)
    if domain == "circle":
        closed = circle_norm_sq(par, phase)
        spectral = make_circle_state(par, phase).norm_sq()
    else:
        try:
            spectral = make_box_state(par, phase).norm_sq()
        except DegenerateStateError:
            return
        closed = box_norm_sq(par, phase)
    assert abs(closed - spectral) <= 1e-12 * spectral


def _spectral_overlap(params, domain, a, b, t):
    """sum_k conj(c_k(a)) c_k(b) e^{-i omega_k t} over the union of the
    two mode windows, from the states' own coefficients, and the size
    of the rounding of its largest phase omega_k t,
    eps max(omega_k t) sum |c_k(a) c_k(b)|."""
    make = make_circle_state if domain == "circle" else make_box_state
    sa = make(params, a)
    sb = evolve(make(params, b), t)
    k_min = min(sa.k_min, sb.k_min)
    k = np.arange(k_min, max(sa.k_values[-1], sb.k_values[-1]) + 1)
    ca, cb = (np.zeros(len(k), dtype=complex) for _ in range(2))
    ca[sa.k_min - k_min:][:len(sa.coefficients)] = sa.coefficients
    cb[sb.k_min - k_min:][:len(sb.coefficients)] = sb.coefficients
    cover = params.half_length * (1.0 if domain == "circle" else 2.0)
    phase = params.hbar * t * (math.pi * np.max(np.abs(k)) / cover) ** 2 \
        / (2.0 * params.mass)
    rounding = np.finfo(float).eps * phase * float(np.sum(np.abs(ca * cb)))
    return complex(np.vdot(ca, cb)), rounding


@CASES
@given(hbar=st.floats(0.02, 0.3), alpha_rel=st.floats(0.02, 0.24),
       l=st.floats(0.5, 4.0), gamma=st.floats(0.01, 100.0),
       q_rel=st.floats(-1.0, 1.0), qb_rel=st.floats(-1.0, 1.0),
       p=st.floats(-3.0, 3.0), pb=st.floats(-3.0, 3.0),
       domain=st.sampled_from(["circle", "box"]))
def test_image_overlap_equals_mode_sum_at_t(hbar, alpha_rel, l, gamma, q_rel,
                                            qb_rel, p, pb, domain):
    # The image sum against the spectral sum of the evolved coefficients,
    # at spreading factors gamma up to 100.  Both round evolution phases
    # of up to about 1e5 rad here, so the bound adds that rounding; at
    # such phases the image sum was off by 1.0e-11 against a 40-digit
    # exact-phase mode sum (box, gamma = 59, phase 6.3e4 rad).
    par = PhysicalParams(hbar, 1.0, alpha_rel * l, l)
    t = gamma * 2.0 * par.mass * par.alpha**2 / hbar
    a, b = PhasePoint(q_rel * l, p), PhasePoint(qb_rel * l, pb)
    try:
        spectral, rounding = _spectral_overlap(par, domain, a, b, t)
    except DegenerateStateError:
        return
    image = complex(domain_overlap(par, domain, a.q, a.p, b.q, b.p, t))
    assert abs(image - spectral) <= 1e-12 * (1.0 + abs(spectral)) + rounding


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_atom_norms_match_scalar_norms(domain):
    rho = _mixture(domain, 0.0)
    norm = circle_norm_sq if domain == "circle" else box_norm_sq
    scalar = np.array([norm(rho.params, ph) for _, ph in rho.atoms])
    got = rho.atom_norms_sq()
    assert np.max(np.abs(got - scalar)) <= 1e-15 * np.max(scalar)
