"""Husimi transform, classical transport, pairings, and schedules."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_circle import _peak_bytes
from test_periodized_overlap import oracle_overlap

from qrevival.circle import (limit_profile, profile_position_density,
                             revival_structure, transition_density)
from qrevival.husimi import (DensityOperatorMixture, TestFamily,
                             classical_transport, density_mass,
                             gaussian_mixture_density, grid_density,
                             husimi, husimi_grid, kozlov_limit,
                             make_schedule, pair_classical, pair_profile,
                             pair_sampled, residual_trend_ok,
                             rho_from_classical, transition_grid)
from qrevival.params import (ContractViolation, DomainError, PhasePoint,
                             PhysicalParams)

L = math.pi
# The modules, not the functions of the same names the package re-exports.
husimi_module = importlib.import_module("qrevival.husimi")
theta_module = importlib.import_module("qrevival.theta")
TRANSITION_CASES = settings(max_examples=25, deadline=None,
                            derandomize=True, database=None)


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


def test_box_transport_matches_bounce(rng):
    from qrevival.oracles import bounce_trajectory
    # One component per momentum sign, so both sheets carry mass.
    sigma = gaussian_mixture_density("box", L, 1.0,
                                     [(0.6, 0.3, 1.5, 0.3, 0.2),
                                      (0.4, -1.2, -1.1, 0.4, 0.3)])
    # sigma_t(flow_t(z)) = sigma(z) pointwise, after 1 to 13 bounces.
    for _ in range(40):
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        z = PhasePoint(rng.uniform(-0.95 * L, 0.95 * L),
                       sign * rng.uniform(0.8, 2.0))
        t = rng.uniform(8.0, 40.0)
        moved = classical_transport(sigma, t)
        end = bounce_trajectory(z, L, 1.0, t)
        before = float(sigma.evaluate(np.array([z.q]), np.array([z.p]))[0])
        after = float(moved.evaluate(np.array([end.q]),
                                     np.array([end.p]))[0])
        assert abs(before - after) < 1e-10


def test_mixture_density_matches_image_sum():
    components = [(0.5, 0.4, 2.0, 0.05, 0.15), (0.3, -2.0, -1.0, 0.4, 0.3),
                  (0.2, 1.0, 0.5, 2.5, 0.2)]
    q = np.linspace(-L, L, 97)[:, None]
    p = np.linspace(-3.0, 3.0, 61)[None, :]
    want = np.zeros((97, 61))
    for w, q0, p0, sq, sp in components:
        qfac = sum(np.exp(-(q - q0 - 2.0 * n * L) ** 2 / (2.0 * sq * sq))
                   for n in range(-6, 7))
        want += w * qfac * np.exp(-(p - p0) ** 2 / (2.0 * sp * sp)) \
            / (2.0 * math.pi * sq * sp)
    for domain in ("circle", "box"):
        got = gaussian_mixture_density(domain, L, 1.0, components) \
            .evaluate(q, p)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(want)


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


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_pair_sampled_all_indices_match_single(domain, rng):
    fam = TestFamily(domain, L, (1.0, 1.6, 2.2), 0.3, J=3)
    q = np.linspace(-L, L, 96, endpoint=False) + L / 96
    p = np.linspace(0.2, 3.0, 40)
    values = rng.uniform(0.0, 2.0, (len(q), len(p)))
    dq, dp = q[1] - q[0], p[1] - p[0]
    got = pair_sampled(fam, range(fam.size), q, p, values, dq, dp)
    assert got.shape == (fam.size,)
    for idx in range(fam.size):
        # One test function as a full grid, summed against the samples.
        tau = fam.position_factor(idx, q)[:, None] \
            * fam.momentum_factor(idx, p)[None, :]
        want = float(np.sum(values * tau)) * dq * dp
        assert abs(got[idx] - want) <= 1e-13 * (1.0 + abs(want))
        one = pair_sampled(fam, idx, q, p, values, dq, dp)
        assert type(one) is float
        assert abs(one - want) <= 1e-13 * (1.0 + abs(want))
    picked = pair_sampled(fam, [4, 0, 4], q, p, values, dq, dp)
    assert np.allclose(picked, got[[4, 0, 4]], rtol=1e-13, atol=1e-13)


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


def _image_sum_density(profile, x):
    """The profile's Gaussians summed over images |n| <= 3: period 2l on
    the circle; in the box period 4l, on both sheets (x and 2l - x)."""
    l, D = profile.half_length, profile.spread_d
    if math.isinf(D):
        return np.full_like(x, 1.0 / (2.0 * l))
    period = 2.0 * l if profile.domain == "circle" else 4.0 * l
    sheets = (x,) if profile.domain == "circle" else (x, 2.0 * l - x)
    dens = np.zeros_like(x)
    for y in sheets:
        for c in profile.centers:
            for n in range(-3, 4):
                dens += np.exp(-(y - c - n * period) ** 2 / (2.0 * D * D))
    return profile.weight * dens / math.sqrt(2.0 * math.pi * D * D)


def _delta_points(profile):
    """Where the D = 0 profile's centers land in [-l, l): their images
    |n| <= 3, on both sheets in the box."""
    l = profile.half_length
    period = 2.0 * l if profile.domain == "circle" else 4.0 * l
    points = []
    for c in profile.centers:
        for n in range(-3, 4):
            y = c + n * period
            sheets = (y,) if profile.domain == "circle" else (y, 2.0 * l - y)
            points += [v for v in sheets if -l <= v < l]
    return np.array(points)


@pytest.mark.parametrize("D", [0.0, 0.05, 0.4, 1.0, math.inf])
@pytest.mark.parametrize("domain", ["circle", "box"])
def test_pair_profile_against_grid_quadrature(domain, D):
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    fam = TestFamily(domain, L, (1.2,), 0.3, J=3)
    # pair_profile's finite-D box branch is this midpoint rule; the box
    # density is not periodic on [-l, l], so the rule's own error (about
    # 4e-9 for the sine harmonics here) would show at another n.
    n = 4096
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    for N in (2, 3, 4):
        profile = limit_profile(revival_structure(1, N, L),
                                PhasePoint(0.3, 1.2), D, 0.0, domain, par)
        if D == 0.0:
            points = _delta_points(profile)
            assert len(points) == len(profile.centers)
        else:
            dens = _image_sum_density(profile, x)
        for idx in range(fam.size):
            g = float(fam.momentum_factor(idx, 1.2))
            if D == 0.0:
                want = profile.weight \
                    * float(np.sum(fam.position_factor(idx, points))) * g
            else:
                want = float(np.sum(dens * fam.position_factor(idx, x))) \
                    * (2.0 * L / n) * g
            assert abs(pair_profile(fam, idx, profile) - want) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("domain", ["circle", "box"])
def test_profile_density_integrates_to_one(domain, N):
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    profile = limit_profile(revival_structure(1, N, L), PhasePoint(0.4, 2.0),
                            0.3, 0.0, domain, par)
    n = 4096
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    dens = profile_position_density(profile, x)
    assert abs(float(np.sum(dens)) * (2.0 * L / n) - 1.0) < 1e-10
    assert np.max(np.abs(dens - _image_sum_density(profile, x))) < 1e-12


def _transition_branch(par, fixed, t, domain, nq, p_nodes):
    """``transition_grid`` and whether its mode sum ran."""
    calls = []
    mode_sum = husimi_module._transition_mode_sums

    def spy(*args):
        calls.append(args)
        return mode_sum(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(husimi_module, "_transition_mode_sums", spy)
        grid = transition_grid(par, fixed, t, domain, nq, p_nodes)
    assert grid.shape == (nq, len(p_nodes))
    return grid, bool(calls)


def _assert_pointwise(par, fixed, t, domain, grid, p_nodes, rows):
    l = par.half_length
    nq = grid.shape[0]
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    for i in rows:
        for j, pj in enumerate(p_nodes):
            want = transition_density(par, fixed,
                                      PhasePoint(float(q[i]), float(pj)),
                                      t, domain)
            assert abs(grid[i, j] - want) < 1e-12 * (1.0 + want)


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_transition_grid_matches_pointwise(domain):
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    fixed = PhasePoint(0.2, 1.0)
    t = 0.6
    p_nodes = np.array([0.8, 1.1])
    grid = transition_grid(par, fixed, t, domain, 16, p_nodes)
    _assert_pointwise(par, fixed, t, domain, grid, p_nodes, (0, 7, 15))


@TRANSITION_CASES
@given(domain=st.sampled_from(["circle", "box"]), l=st.floats(1.0, 4.0),
       hbar=st.floats(0.02, 0.2), alpha_rel=st.floats(0.02, 0.2),
       t=st.floats(0.0, 20.0), q_rel=st.floats(-1.0, 1.0),
       p=st.floats(-2.0, 2.0), nq=st.integers(128, 1024),
       offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
def test_transition_mode_sum_matches_pointwise(domain, l, hbar, alpha_rel, t,
                                               q_rel, p, nq, offsets):
    # Windows of a few hundred modes against at least 5 images per grid
    # point: the mode sum is the cheaper form.
    par = PhysicalParams(hbar, 1.0, alpha_rel * l, l)
    fixed = PhasePoint(q_rel * l, p)
    p_nodes = p + hbar / par.alpha * np.array(offsets)
    grid, modes = _transition_branch(par, fixed, t, domain, nq, p_nodes)
    assert modes
    _assert_pointwise(par, fixed, t, domain, grid, p_nodes,
                      (0, nq // 3, nq - 1))


@TRANSITION_CASES
@given(domain=st.sampled_from(["circle", "box"]), l=st.floats(1.0, 4.0),
       hbar=st.floats(0.02, 0.2), alpha_rel=st.floats(0.001, 0.005),
       gamma=st.floats(0.0, 5.0), q_rel=st.floats(-1.0, 1.0),
       p=st.floats(-2.0, 2.0), nq=st.integers(16, 64),
       offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
def test_transition_image_sum_matches_pointwise(domain, l, hbar, alpha_rel,
                                                gamma, q_rel, p, nq,
                                                offsets):
    # Narrow packets: windows of thousands of modes against a few
    # images per grid point, so the image sum is the cheaper form.
    par = PhysicalParams(hbar, 1.0, alpha_rel * l, l)
    t = gamma * 2.0 * par.alpha**2 / hbar
    fixed = PhasePoint(q_rel * l, p)
    p_nodes = p + hbar / par.alpha * np.array(offsets)
    grid, modes = _transition_branch(par, fixed, t, domain, nq, p_nodes)
    assert not modes
    _assert_pointwise(par, fixed, t, domain, grid, p_nodes,
                      (0, nq // 3, nq - 1))


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_transition_grid_at_revival_spreading(domain):
    # Level 0 of the c = 1/2 revival schedule: gamma ~ 700 on the circle
    # and ~ 2800 in the box, against the quadrature oracle.
    base = PhysicalParams(0.05, 1.0, 0.3 * math.sqrt(0.05), L)
    level = make_schedule(Fraction(1, 2), 0.0, base, 3, domain,
                          p_ref=2.0).levels[0]
    par, t = level.params, level.t
    fixed = PhasePoint(0.3, 2.0)
    p_nodes = np.array([1.9, 2.2])
    nq = 64
    grid, modes = _transition_branch(par, fixed, t, domain, nq, p_nodes)
    assert modes
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    for i in (5, 40):
        for j, pj in enumerate(p_nodes):
            ov = oracle_overlap(par, domain, fixed,
                                PhasePoint(float(q[i]), float(pj)), t)
            want = abs(ov) ** 2 / (2.0 * math.pi * par.hbar)
            assert abs(grid[i, j] - want) < 1e-10


@pytest.mark.parametrize("domain", ["circle", "box"])
@pytest.mark.parametrize("alpha", [1e-5, 1e-7])
def test_transition_grid_huge_window_takes_image_sum(domain, alpha):
    # 1.26e6 modes (alpha = 1e-5) cost more than the few images; 1.26e8
    # (alpha = 1e-7) would pass MODE_CAP.  Neither raises CapacityError.
    par = PhysicalParams(0.05, 1.0, alpha, L)
    fixed = PhasePoint(0.4, 1.0)
    p_nodes = np.array([0.99, 1.0])
    t = 2.0 * alpha**2 / par.hbar
    grid, modes = _transition_branch(par, fixed, t, domain, 32, p_nodes)
    assert not modes
    _assert_pointwise(par, fixed, t, domain, grid, p_nodes, range(32))


@pytest.mark.parametrize("domain", ["circle", "box"])
@pytest.mark.parametrize("cap", [None, 2**14])
def test_transition_grid_memory(domain, cap, monkeypatch):
    # The 6.3k-mode packet of the dense evolve config on 2048 x 128, at
    # gamma ~ 6000, where each point needs tens of images.
    if cap is not None:
        monkeypatch.setattr(theta_module, "BLOCK_CAP", cap)
    par = PhysicalParams(1e-3, 1.0, 0.002, L)
    fixed = PhasePoint(0.4, 1.0)
    p_nodes = 1.0 + 0.05 * np.linspace(-1.0, 1.0, 128)
    nq, t = 2048, 50.0
    k = husimi_module._transition_window(par, fixed.p, p_nodes, domain)
    assert len(k) > 6300
    n_bins = nq if domain == "circle" else 2 * nq
    lo, hi = theta_module.image_window(theta_module.overlap_decay(par, t),
                                       -L, L, n_bins / nq * 2.0 * L)
    # Blocks hold at most as many entries as one image sum over the grid.
    entries = min(nq * (hi - lo + 1), theta_module.BLOCK_CAP)
    cols = max(1, entries // max(len(k), n_bins))
    assert cols < len(p_nodes)
    peak = _peak_bytes(transition_grid, par, fixed, t, domain, nq, p_nodes)
    # The float output plus eight complex (modes + bins) x columns
    # arrays, and eight such vectors for the fixed label.
    assert peak < 8 * nq * len(p_nodes) \
        + 8 * 16 * (len(k) + n_bins) * (cols + 1)


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
