"""Circle coherent states: coefficients, norms, evolution, revivals."""

import importlib
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrevival import circle
from qrevival.box import make_box_state
from qrevival.circle import (circle_norm_sq, circle_overlap,
                             eval_state, evolve, irrational_structure,
                             limit_profile, make_circle_state,
                             profile_position_density, revival_structure,
                             time_scales)
from qrevival.oracles import (QuadratureSpec, brute_evolve,
                              circle_state_callable, quad_inner, read_golden)
from qrevival.params import (CapacityError, ContractViolation,
                             MethodUnavailable, PhasePoint, PhysicalParams)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
L = math.pi
EPS = np.finfo(float).eps
PI_LD = np.longdouble("3.14159265358979323846264338327950288")
# The module, not the theta function the package re-exports.
theta = importlib.import_module("qrevival.theta")


def test_alpha_contract():
    par = PhysicalParams(0.1, 1.0, L / 3.0, L)
    with pytest.raises(ContractViolation):
        make_circle_state(par, PhasePoint(0.0, 1.0))


def test_capacity_guard():
    par = PhysicalParams(1e-12, 1.0, 1e-9, L)
    with pytest.raises(CapacityError):
        make_circle_state(par, PhasePoint(0.0, 1.0))


def test_coefficients_match_projection():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(0.4, 1.2)
    state = make_circle_state(par, ph)
    spec = QuadratureSpec(subdivisions=16)

    def f(x):
        # Periodized free packets, independent of the coefficients.
        return eval_state(state, x, method="image_sum")

    for k in (state.k_min, state.k_min + len(state.coefficients) // 2):
        def basis(x, k=k):
            return np.exp(1j * math.pi * k * np.asarray(x) / L) \
                / math.sqrt(2.0 * L)
        want = quad_inner(basis, f, (-L, L), spec)
        got = state.coefficients[k - state.k_min]
        assert abs(got - want) < 1e-12


def _comb_direct(par, k, q, p, l):
    """The comb coefficient as one complex exponential."""
    a2 = par.alpha**2
    pref = (math.pi * a2 / (2.0 * l**4)) ** 0.25 * np.sqrt(2.0 * l)
    return pref * np.exp(-a2 * (math.pi * k / l - p / par.hbar) ** 2
                         - 1j * math.pi * k * q / l)


def _comb_cases():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    small = PhysicalParams(0.002, 1.0, 0.3 * math.sqrt(0.002), L)
    nodes = np.linspace(0.96, 1.04, 7)[:, None]
    return {
        # The resolution oracle: modes x a column of positions.
        "k-by-q-column": (par, np.arange(-50, 53),
                          np.linspace(-L, L, 256)[:, None], 0.5, L),
        # Transition grids: modes as a column, q = 0, p' columns.
        "k-by-p-columns": (small, np.arange(-40, 800)[:, None], 0.0,
                           np.linspace(0.2, 1.8, 16), L),
        # Box tables of the random box: nodes x modes, one l per node.
        "nodes-by-K-array-l": (PhysicalParams(0.05, 1.0, 0.2, 1.0),
                               np.arange(-40, 41), 0.3 * nodes - nodes,
                               np.full_like(nodes, 1.0), 2.0 * nodes),
    }


@pytest.mark.parametrize("case", sorted(_comb_cases()))
def test_comb_coefficients_match_direct_formula(case):
    par, k, q, p, l = _comb_cases()[case]
    got = circle.comb_coefficients(par, k, q, p, l)
    want = _comb_direct(par, k, q, p, l)
    assert got.shape == want.shape
    big = np.abs(want) > 1e-3 * np.max(np.abs(want))
    assert np.max(np.abs(got - want)[big] / np.abs(want)[big]) < 1e-13


def test_norm_series_vs_quadrature(rng):
    spec = QuadratureSpec(subdivisions=16)
    for _ in range(4):
        par = PhysicalParams(rng.uniform(0.05, 0.3), 1.0,
                             rng.uniform(0.2, 0.7), L)
        ph = PhasePoint(rng.uniform(-L, L), rng.uniform(-2.0, 2.0))
        series = circle_norm_sq(par, ph)
        f = circle_state_callable(par, ph)
        quad = quad_inner(f, f, (-L, L), spec).real
        assert abs(series - quad) < 1e-12 * quad


def test_norm_near_one_for_narrow_packets():
    par = PhysicalParams(0.1, 1.0, 0.1 * L, L)
    for p in (0.0, 1.0, 3.7):
        assert abs(circle_norm_sq(par, PhasePoint(0.2, p)) - 1.0) < 1e-15


def test_norm_wide_packet_value():
    # alpha = l/2, p = 0: norm^2 = 1 + 2e^-2 + 2e^-8 + 2e^-18 + ...
    par = PhysicalParams(0.1, 1.0, L / 2.0, L)
    expected = 1.0 + 2.0 * sum(math.exp(-2.0 * k * k) for k in range(1, 10))
    assert abs(circle_norm_sq(par, PhasePoint(0.0, 0.0)) - expected) < 1e-14
    assert abs(expected - 1.27134) < 1e-5


def test_norm_against_golden():
    _, tol, rows = read_golden(os.path.join(GOLDEN, "norms.csv"))
    for row in rows:
        if row["domain"] != "circle":
            continue
        par = PhysicalParams(float(row["hbar"]), float(row["mass"]),
                             float(row["alpha"]), float(row["half_length"]))
        got = circle_norm_sq(par, PhasePoint(float(row["q"]),
                                             float(row["p"])))
        assert abs(got - float(row["norm_sq"])) < tol * got


def test_overlap_against_golden():
    _, tol, rows = read_golden(os.path.join(GOLDEN, "circle_overlaps.csv"))
    for row in rows:
        par = PhysicalParams(float(row["hbar"]), float(row["mass"]),
                             float(row["alpha"]), float(row["half_length"]))
        a = PhasePoint(float(row["qa"]), float(row["pa"]))
        b = PhasePoint(float(row["qb"]), float(row["pb"]))
        want = complex(float(row["overlap_re"]), float(row["overlap_im"]))
        got = circle_overlap(par, a, b, float(row["t"]))
        assert abs(got - want) < tol


def test_dual_engine_densities(rng):
    par = PhysicalParams(0.05 * L, 1.0, 0.05 * L, L)
    ph = PhasePoint(0.3, 1.0)
    state = make_circle_state(par, ph)
    scales = time_scales(par, ph.p, "circle")
    x = rng.uniform(-L, L, size=128)
    for t in (0.0, 0.3 * scales.t_coll):
        st = evolve(state, t)
        a = eval_state(st, x, method="spectral")
        b = eval_state(st, x, method="image_sum")
        assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) < 1e-10


def test_evolve_matches_brute_oracle():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(-0.4, 1.1)
    state = make_circle_state(par, ph)
    n = 1024
    x = -L + 2.0 * L / n * np.arange(n)
    psi0 = eval_state(state, x)
    t = 0.9
    brute = brute_evolve(psi0, par, t, "circle")
    direct = eval_state(evolve(state, t), x)
    assert np.max(np.abs(brute - direct)) < 1e-10


def test_image_sum_requires_source():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    state = make_circle_state(par, PhasePoint(0.0, 1.0))
    import dataclasses
    anon = dataclasses.replace(state, source=None)
    with pytest.raises(MethodUnavailable):
        eval_state(anon, np.array([0.0]), method="image_sum")


def test_full_revival():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(0.5, 1.4)
    scales = time_scales(par, ph.p, "circle")
    auto = circle_overlap(par, ph, ph, scales.t_rev)
    norm = circle_norm_sq(par, ph)
    assert abs(abs(auto) - norm) < 1e-11


def test_time_scales_formulas():
    par = PhysicalParams(0.05, 2.0, 0.3, L)
    s = time_scales(par, 1.5, "circle")
    assert abs(s.t_cl - 2.0 * L * 2.0 / 1.5) < 1e-15
    assert abs(s.t_coll - 2.0 * 2.0 * L * 0.3
               / (math.sqrt(3.0) * 0.05)) < 1e-12
    assert abs(s.t_rev - 4.0 * 2.0 * L * L / (math.pi * 0.05)) < 1e-9


@pytest.mark.parametrize("m,n,n_prime,has_offset", [
    (1, 3, 3, False), (1, 2, 1, True), (1, 4, 2, False), (3, 5, 5, False),
    (1, 6, 3, True), (5, 8, 4, False),
])
def test_revival_structure(m, n, n_prime, has_offset):
    s = revival_structure(m, n, L)
    assert s.n_prime == n_prime
    if has_offset:
        assert abs(s.a - 2.0 * L / n) < 1e-15
    else:
        assert s.a == 0.0


def test_revival_structure_rejects_unreduced():
    with pytest.raises(ContractViolation):
        revival_structure(2, 4, L)


def test_irrational_structure():
    s = irrational_structure()
    assert s.n_prime == 1 and s.a == 0.0 and s.irrational_flag


def test_fractional_revival_peak_positions():
    par = PhysicalParams(0.02, 1.0, 0.02 * L, L)
    ph = PhasePoint(0.5, 1.0)
    state = make_circle_state(par, ph)
    scales = time_scales(par, ph.p, "circle")
    n = 1024
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    cell = 2.0 * L / n
    for frac in (Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)):
        structure = revival_structure(frac.numerator, frac.denominator, L)
        dens = np.abs(eval_state(evolve(state, float(frac) * scales.t_rev),
                                 x)) ** 2
        peaks = [float(x[i]) for i in range(n)
                 if dens[i] > dens[i - 1] and dens[i] >= dens[(i + 1) % n]
                 and dens[i] > 0.2 * dens.max()]
        profile = limit_profile(structure, ph, 0.0, 0.0, "circle", par)
        assert len(peaks) == structure.n_prime
        for c in profile.centers:
            assert min(abs(pk - c) for pk in peaks) <= cell


def test_limit_profile_drift_and_density():
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    structure = revival_structure(0, 1, L)
    offset = -0.3
    profile = limit_profile(structure, PhasePoint(0.1, 2.0), 0.4, offset,
                            "circle", par)
    # drift = -p t_offset / m moves the center forward for t past c T_rev.
    assert abs(profile.centers[0] - (0.1 + 2.0 * 0.3)) < 1e-14
    x = np.linspace(-L, L, 2048, endpoint=False)
    dens = profile_position_density(profile, x)
    assert abs(np.sum(dens) * (2.0 * L / 2048) - 1.0) < 1e-10


def test_limit_profile_delta_has_no_density():
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    profile = limit_profile(revival_structure(0, 1, L), PhasePoint(0.0, 1.0),
                            0.0, 0.0, "circle", par)
    with pytest.raises(MethodUnavailable):
        profile_position_density(profile, np.array([0.0]))


@pytest.mark.parametrize("domain", ["circle", "box"])
@pytest.mark.parametrize("s", [0.5, None])
def test_eval_state_keeps_shape_of_x(domain, s):
    # A 2-D x: a midpoint grid (s = 0.5, the FFT path) or scattered
    # points (the explicit basis).  Both methods keep its shape.
    par = PhysicalParams(0.05, 1.0, 0.2, L)
    make = make_circle_state if domain == "circle" else make_box_state
    state = evolve(make(par, PhasePoint(0.4, 1.0)), 1.3)
    x = np.linspace(-1.0, 1.0, 6) if s is None else _grid(L, 6, s)
    x = x.reshape(2, 3)
    spectral = eval_state(state, x)
    images = eval_state(state, x, method="image_sum")
    assert spectral.shape == images.shape == (2, 3)
    assert np.max(np.abs(spectral - images)) < 1e-10
    for point in (0.3, np.array([0.3])):
        one = eval_state(state, point)
        assert np.ndim(one) == 0
        assert abs(one - eval_state(state, point, method="image_sum")) < 1e-10


def _grid(l, n, s):
    """n points of spacing 2l/n, the first s cells right of -l."""
    return -l + 2.0 * l / n * (np.arange(n) + s)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(l=st.floats(0.5, 4.0), hbar=st.floats(1e-3, 0.3),
       alpha_rel=st.floats(0.005, 0.24), q_rel=st.floats(-1.0, 1.0),
       p=st.floats(-3.0, 3.0), t=st.floats(0.0, 20.0),
       n=st.one_of(st.sampled_from([2, 3]), st.integers(2, 700)),
       s=st.sampled_from([0.0, 0.5, 0.3]))
@example(l=L, hbar=1e-3, alpha_rel=0.005, q_rel=0.2, p=1.0, t=0.37, n=2,
         s=0.5)
def test_fft_synthesis_matches_basis(l, hbar, alpha_rel, q_rel, p, t, n, s):
    # The folded FFT against the explicit basis on the same points;
    # small alpha gives K > n modes, so several modes share a bin.
    par = PhysicalParams(hbar, 1.0, alpha_rel * l, l)
    state = evolve(make_circle_state(par, PhasePoint(q_rel * l, p)), t)
    x = _grid(l, n, s)
    m = circle._uniform_offset(x, l)
    assert m is not None and isinstance(m, int) == (s != 0.3)
    fft = eval_state(state, x)
    basis = circle._eval_basis(state, x)
    # Both round the phase of mode k to about |k| ulps.
    k_max = int(np.max(np.abs(state.k_values)))
    l1 = np.sum(np.abs(state.coefficients)) / math.sqrt(2.0 * l)
    assert np.max(np.abs(fft - basis)) <= 4.0 * EPS * (k_max + n) * l1


def _midpoint_reference(state, n):
    """The state at the exact midpoints -l + (j + 1/2) 2l/n, summed in
    long double; the angle pi k (2j + 1 - n) / n is reduced mod 2 pi in
    integers first."""
    k = state.k_values
    c = state.coefficients.astype(np.clongdouble)
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, 64):
        j = np.arange(lo, min(lo + 64, n))[:, None]
        r = (k * (2 * j + 1 - n)) % (2 * n)
        angle = PI_LD * r.astype(np.longdouble) / n
        out[lo:lo + 64] = (np.cos(angle) + 1j * np.sin(angle)) @ c
    return out / np.sqrt(2.0 * np.longdouble(state.params.half_length))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_fft_synthesis_against_long_double():
    # The evolve_dense state of the benchmark: 6329 modes.
    par = PhysicalParams(1e-3, 1.0, 0.002, L)
    state = evolve(make_circle_state(par, PhasePoint(0.7, 1.0)), 0.37)
    assert len(state.coefficients) > 6000
    n = 512
    want = _midpoint_reference(state, n)
    got = eval_state(state, _grid(L, n, 0.5))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("domain", ["circle", "box"])
@pytest.mark.parametrize("cap", [1, 200])
def test_blocked_basis_matches_single_block(domain, cap, monkeypatch, rng):
    par = PhysicalParams(0.01, 1.0, 0.05, L)
    make = make_circle_state if domain == "circle" else make_box_state
    state = evolve(make(par, PhasePoint(0.4, 1.0)), 0.8)
    x = np.sort(rng.uniform(-L, L, size=300))
    assert circle._uniform_offset(x, L) is None
    monkeypatch.setattr(theta, "BLOCK_CAP", 2**40)
    whole = eval_state(state, x)
    whole_bytes = _peak_bytes(eval_state, state, x)
    monkeypatch.setattr(theta, "BLOCK_CAP", cap)
    blocked = eval_state(state, x)
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))
    # The blocks hold at most max(cap, K) basis entries at a time.
    assert _peak_bytes(eval_state, state, x) < whole_bytes / 10


def test_dense_state_synthesis_stays_small():
    # 2048 midpoints x 6329 modes: an explicit basis would take 207 MB.
    par = PhysicalParams(1e-3, 1.0, 0.002, L)
    state = evolve(make_circle_state(par, PhasePoint(0.7, 1.0)), 0.37)
    assert _peak_bytes(eval_state, state, _grid(L, 2048, 0.5)) < 4e6


def test_huge_window_synthesis_memory():
    # 1.26e6 modes: an explicit basis on 512 points would take 9.65 GiB.
    par = PhysicalParams(0.05, 1.0, 1e-5, L)
    state = evolve(make_circle_state(par, PhasePoint(0.3, 1.0)), 0.5)
    assert len(state.coefficients) > 1.2e6
    assert _peak_bytes(eval_state, state, _grid(L, 512, 0.5)) < 200e6
