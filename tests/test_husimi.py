"""Husimi transform, classical transport, pairings, and schedules."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qrevival.circle import limit_profile, revival_structure
from qrevival.husimi import (DensityOperatorMixture, TestFamily,
                             classical_transport, density_mass,
                             gaussian_mixture_density, grid_density,
                             husimi, husimi_grid, kozlov_limit,
                             make_schedule, pair_classical, pair_profile,
                             residual_trend_ok, rho_from_classical,
                             transition_grid)
from qrevival.params import (ContractViolation, DomainError, PhasePoint,
                             PhysicalParams)

L = math.pi


def test_mixture_weight_validation():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    with pytest.raises(ContractViolation):
        DensityOperatorMixture(par, "circle",
                               ((0.7, PhasePoint(0.0, 1.0)),))
    with pytest.raises(ContractViolation):
        DensityOperatorMixture(par, "circle",
                               ((1.5, PhasePoint(0.0, 1.0)),
                                (-0.5, PhasePoint(0.1, 1.0))))


def test_husimi_normalization():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    rho = DensityOperatorMixture(par, "circle",
                                 ((1.0, PhasePoint(0.3, 1.0)),))
    nq, npv = 128, 400
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    spread = 10.0 * par.hbar / par.alpha
    p = 1.0 - spread + 2.0 * spread / npv * (np.arange(npv) + 0.5)
    vals = husimi_grid(rho, q, p)
    mass = float(np.sum(vals)) * (2.0 * L / nq) * (2.0 * spread / npv)
    assert abs(mass - 1.0) < 1e-6
    assert np.all(vals >= 0.0)


def test_husimi_peaks_at_atom():
    par = PhysicalParams(1e-3 * L, 1.0, math.sqrt(1e-3) * L, L)
    ph = PhasePoint(0.4, 1.0)
    rho = DensityOperatorMixture(par, "circle", ((1.0, ph),))
    nq, npv = 64, 64
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    p = 1.0 - 0.5 + 1.0 / npv * (np.arange(npv) + 0.5)
    vals = husimi_grid(rho, q, p)
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    assert abs(q[i] - ph.q) <= 2.0 * L / nq
    assert abs(p[j] - ph.p) <= 1.0 / npv


def test_husimi_scalar_matches_grid():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    rho = DensityOperatorMixture(par, "circle",
                                 ((0.6, PhasePoint(0.0, 1.0)),
                                  (0.4, PhasePoint(0.5, 0.8))))
    v = husimi(rho, PhasePoint(0.2, 0.9))
    grid = husimi_grid(rho, np.array([0.2]), np.array([0.9]))
    assert abs(v - grid[0, 0]) < 1e-15


def test_classical_transport_circle_period():
    sigma = gaussian_mixture_density("circle", L, 1.0,
                                     [(1.0, 0.5, 2.0, 0.4, 0.15)])
    t_cl = 2.0 * L * 1.0 / 2.0
    moved = classical_transport(sigma, t_cl)
    q = np.linspace(-L, L, 64, endpoint=False)
    p = np.linspace(1.4, 2.6, 32)
    a = sigma.evaluate(q[:, None], p[None, :])
    b = moved.evaluate(q[:, None], p[None, :])
    # At T_cl for the mean momentum, off-mean momenta have sheared, but
    # the density evaluated at the mean momentum line returns exactly.
    mid = sigma.evaluate(q, np.full_like(q, 2.0))
    mid_t = moved.evaluate(q, np.full_like(q, 2.0))
    assert np.max(np.abs(mid - mid_t)) < 1e-10
    assert a.shape == b.shape


def test_box_transport_matches_bounce():
    from qrevival.oracles import bounce_trajectory
    sigma = gaussian_mixture_density("box", L, 1.0,
                                     [(1.0, 0.3, 1.5, 0.3, 0.2)])
    t = 7.3
    moved = classical_transport(sigma, t)
    # sigma_t(flow_t(z)) = sigma(z) pointwise.
    for z in (PhasePoint(0.2, 1.4), PhasePoint(-0.8, 1.7)):
        end = bounce_trajectory(z, L, 1.0, t)
        before = float(sigma.evaluate(np.array([z.q]), np.array([z.p]))[0])
        after = float(moved.evaluate(np.array([end.q]),
                                     np.array([end.p]))[0])
        assert abs(before - after) < 1e-10


def test_density_mass_one():
    sigma = gaussian_mixture_density("circle", L, 1.0,
                                     [(0.7, 0.0, 1.0, 0.3, 0.1),
                                      (0.3, 1.0, 1.5, 0.5, 0.2)])
    assert abs(density_mass(sigma) - 1.0) < 1e-6


def test_grid_density_rejects_negative():
    with pytest.raises(ContractViolation):
        grid_density("circle", L, 1.0, np.linspace(-L, L, 4),
                     np.linspace(0.0, 1.0, 4),
                     -np.ones((4, 4)))


def test_kozlov_limit_is_q_independent():
    sigma = gaussian_mixture_density("circle", L, 1.0,
                                     [(1.0, 0.5, 2.0, 0.4, 0.15)])
    limit = kozlov_limit(sigma)
    p = np.array([1.8, 2.0, 2.2])
    a = limit.evaluate(np.full_like(p, -1.0), p)
    b = limit.evaluate(np.full_like(p, 2.0), p)
    assert np.max(np.abs(a - b)) < 1e-14


def test_rho_from_classical_weights():
    sigma = gaussian_mixture_density("circle", L, 1.0,
                                     [(1.0, 0.5, 2.0, 0.4, 0.15)])
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    rho = rho_from_classical(sigma, par, nq=12, npv=12)
    assert abs(sum(w for w, _ in rho.atoms) - 1.0) < 1e-12


def test_family_indexing_and_values():
    fam = TestFamily("circle", L, (1.0, 2.0), 0.3, J=2)
    assert fam.size == 10
    q = np.array([0.3])
    # index 0: constant harmonic, first bump.
    assert fam.harmonic_order(0) == 0
    assert float(fam.position_factor(0, q)[0]) == 1.0
    # cos and sin pairs follow.
    idx_cos1 = 1 * len(fam.p_centers)
    assert abs(float(fam.position_factor(idx_cos1, q)[0])
               - math.cos(math.pi * 0.3 / L)) < 1e-15
    with pytest.raises(ContractViolation):
        fam.value(99, 0.0, 0.0)


def test_box_family_momentum_symmetry():
    fam = TestFamily("box", L, (1.5,), 0.3, J=2)
    p = np.array([0.7])
    assert abs(float(fam.momentum_factor(0, p)[0])
               - float(fam.momentum_factor(0, -p)[0])) < 1e-15


def test_pair_profile_damping_ratio():
    # phi_D pairing / delta pairing = exp(-(pi j D / l)^2 / 2).
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    structure = revival_structure(0, 1, L)
    ph = PhasePoint(0.4, 1.0)
    fam = TestFamily("circle", L, (1.0,), 0.3, J=3)
    D = 0.5
    prof_d = limit_profile(structure, ph, D, 0.0, "circle", par)
    prof_0 = limit_profile(structure, ph, 0.0, 0.0, "circle", par)
    for idx in range(fam.size):
        j = fam.harmonic_order(idx)
        a = pair_profile(fam, idx, prof_d)
        b = pair_profile(fam, idx, prof_0)
        if abs(b) > 1e-12:
            assert abs(a / b - math.exp(-0.5 * (math.pi * j * D / L) ** 2)) \
                < 1e-10


def test_pair_profile_against_grid_quadrature():
    from qrevival.circle import profile_position_density
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    profile = limit_profile(revival_structure(1, 3, L), PhasePoint(0.3, 1.2),
                            0.4, 0.0, "circle", par)
    fam = TestFamily("circle", L, (1.2,), 0.3, J=3)
    n = 8192
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    dens = profile_position_density(profile, x)
    for idx in range(0, fam.size, 2):
        grid = float(np.sum(dens * fam.position_factor(idx, x))) \
            * (2.0 * L / n) * float(fam.momentum_factor(idx, 1.2))
        assert abs(pair_profile(fam, idx, profile) - grid) < 1e-9


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_transition_grid_matches_pointwise(domain):
    from qrevival.circle import transition_density
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    fixed = PhasePoint(0.2, 1.0)
    t = 0.6
    p_nodes = np.array([0.8, 1.1])
    grid = transition_grid(par, fixed, t, domain, 16, p_nodes)
    q = -L + 2.0 * L / 16 * (np.arange(16) + 0.5)
    for i in (0, 7, 15):
        for j in (0, 1):
            want = transition_density(par, fixed,
                                      PhasePoint(float(q[i]),
                                                 float(p_nodes[j])),
                                      t, domain)
            assert abs(grid[i, j] - want) < 1e-12 * (1.0 + want)


def test_schedule_construction():
    base = PhysicalParams(0.05, 1.0, 0.3 * math.sqrt(0.05), L)
    sched = make_schedule(Fraction(0), 1.0, base, 4, "circle", p_ref=1.0)
    assert len(sched.levels) == 4
    for a, b in zip(sched.levels, sched.levels[1:]):
        assert b.params.hbar == 0.5 * a.params.hbar
        ratio = b.params.alpha / math.sqrt(b.params.hbar)
        assert abs(ratio - 0.3) < 1e-12
    with pytest.raises(ContractViolation):
        make_schedule(Fraction(0), 1.0, base, 2)
    with pytest.raises(DomainError):
        make_schedule(Fraction(0), -1.0, base, 3)


def test_residual_trend_rules():
    assert residual_trend_ok([1.0, 0.6, 0.45, 0.3])
    assert not residual_trend_ok([1.0, 0.6, 0.65, 0.3])   # non-monotone tail
    assert not residual_trend_ok([1.0, 0.9, 0.8, 0.7])    # final >= half
    assert not residual_trend_ok([1.0, 0.5, 0.3])         # too few levels


def test_kozlov_flattening_short():
    sigma = gaussian_mixture_density("circle", L, 1.0,
                                     [(1.0, 0.5, 2.0, 0.4, 0.15)])
    fam = TestFamily("circle", L, (2.0,), 0.2, J=2)
    limit = kozlov_limit(sigma)
    t = 50.0 * (2.0 * L / 2.0)
    moved = classical_transport(sigma, t)
    for idx in range(fam.size):
        got = pair_classical(fam, idx, moved, nq=256, npv=4096)
        want = pair_classical(fam, idx, limit, nq=256, npv=4096)
        assert abs(got - want) < 0.02 * max(1.0, abs(want))
