"""Random-half-size box: limit identity, cross-checked paths, averages."""

import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival import randombox
from qrevival.box import box_coefficients, box_norm_sq
from qrevival.oracles import odd_periodic_extend, p_inf_inner
from qrevival.params import (CapacityError, DomainError, PhasePoint,
                             PhysicalParams)
from qrevival.randombox import (RandomBoxModel, _chebyshev_density,
                                _gl_nodes, _legendre_gauss, delta_correction,
                                p_xt, time_average_density, uniform_part)

theta = importlib.import_module("qrevival.theta")
PAR = PhysicalParams(0.05, 1.0, 0.2, 1.0)


def _coherent_model():
    return RandomBoxModel(PAR, 1.0, 0.02, kind="coherent", q_rel=0.3, p=1.0)


def test_support_validation():
    with pytest.raises(DomainError):
        RandomBoxModel(PAR, 0.05, 0.02)
    with pytest.raises(DomainError):
        RandomBoxModel(PAR, 1.0, -0.1)


def test_size_density_normalized():
    m = _coherent_model()
    nodes, w, _ = _gl_nodes(m, 0.0)
    assert abs(float(np.sum(w * m.f_density(nodes))) - 1.0) < 1e-13


def test_extension_odd_and_periodic(rng):
    l = 1.3

    def psi(x):
        x = np.atleast_1d(x)
        return np.sin(math.pi * (x - l) / (2.0 * l)) \
            + 0.5j * np.sin(math.pi * (x - l) / l)

    x = rng.uniform(-6.0 * l, 6.0 * l, size=200)
    ext = odd_periodic_extend(psi, x, l)
    per = odd_periodic_extend(psi, x + 4.0 * l, l)
    assert np.max(np.abs(ext - per)) < 1e-14
    # Odd about the wall x = l.
    refl = odd_periodic_extend(psi, 2.0 * l - x, l)
    assert np.max(np.abs(ext + refl)) < 1e-14


def test_density_mass():
    m = _coherent_model()
    x = np.linspace(-1.1, 1.1, 2001)
    for t in (0.0, 11.7):
        mass = np.trapezoid(p_xt(m, x, t), x)
        assert abs(mass - 1.0) < 1e-5


def test_inner_path_cross_check():
    m = _coherent_model()
    x = np.array([-0.7, -0.2, 0.1, 0.55, 0.9])
    a = uniform_part(m, x) - delta_correction(m, x)
    assert np.max(np.abs(a - p_inf_inner(m, x))) < 1e-10


def test_eigenstate_stationary():
    m = RandomBoxModel(PAR, 1.0, 0.02, kind="eigenstate", eigen_index=5)
    x = np.linspace(-1.05, 1.05, 401)
    a = p_xt(m, x, 0.0)
    b = p_xt(m, x, 321.0)
    assert np.max(np.abs(a - b)) < 1e-12


def test_eigenstate_delta_shape():
    # For the k=1 eigenstate family, Delta(x) integrates
    # (chi_l / 2l) cos(pi (x - l) / l) over the size density.
    m = RandomBoxModel(PAR, 1.0, 0.01, kind="eigenstate", eigen_index=1)
    x = np.array([0.0])
    de = float(delta_correction(m, x)[0])
    # cos(pi (0 - l)/l) = cos(-pi) = -1, so Delta(0) ~ -1/(2 l0).
    assert abs(de + 0.5) < 5e-3


def test_not_periodic_in_time():
    m = _coherent_model()
    l0 = 1.0
    t_rev = 16.0 * PAR.mass * l0 * l0 / (math.pi * PAR.hbar)
    x = np.linspace(-0.95, 0.95, 41)
    n_t = 48
    times = np.linspace(0.0, 2.0 * t_rev, n_t, endpoint=False)
    # A pinned moderate quadrature order is plenty for a correlation
    # comparison and avoids escalating to thousands of size nodes.
    series = np.array([p_xt(m, x, t, order=513) for t in times])
    lag = n_t // 2  # exactly T_rev(l_0)
    a = series[:lag].ravel()
    b = series[lag:].ravel()
    corr = float(np.corrcoef(a, b)[0, 1])
    assert corr < 1.0 - 1e-3


def test_time_average_matches_p_inf():
    m = _coherent_model()
    x = np.linspace(-1.08, 1.08, 217)
    ta = time_average_density(m, x)
    pi = uniform_part(m, x) - delta_correction(m, x)
    assert np.max(np.abs(ta - pi)) < 0.01 * np.max(pi)


def _dominant_pair_dw(model):
    # Frequency gap of the heaviest mode and its upper neighbour, at the
    # one node (l_center) of an order-1 size quadrature.
    k, table = model.coefficient_table([model.l_center])
    k0 = int(k[np.argmax(np.abs(table[0]))])
    par, l = model.template, model.l_center
    omega = par.hbar * (math.pi * np.array([k0, k0 + 1]) / (2.0 * l)) ** 2 \
        / (2.0 * par.mass)
    return float(omega[1] - omega[0])


@pytest.mark.parametrize("eps", [None, 1e-7, 3e-6])
def test_time_average_equals_sample_mean(eps):
    # Near-resonant steps alias the dominant mode pair to within eps of a
    # full turn per sample; the closed form must keep the residual phase.
    m = _coherent_model()
    x = np.linspace(-1.05, 1.05, 61)
    n, t_start = 64, 3.0
    dt = 0.37 if eps is None else (2.0 * math.pi + eps) / _dominant_pair_dw(m)
    window = n * dt
    ta = time_average_density(m, x, t_start, window, n_samples=n, order=1)
    step = window / n
    brute = np.mean([p_xt(m, x, t_start + j * step, order=1)
                     for j in range(n)], axis=0)
    assert np.max(np.abs(ta - brute)) < 1e-11


@pytest.mark.parametrize("n", [1, 2, 129, 1025])
def test_legendre_gauss_matches_numpy(n):
    x, w = _legendre_gauss(n)
    x0, w0 = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - x0)) <= 1e-15
    assert np.max(np.abs(w - w0)) <= 1e-12


@pytest.mark.parametrize("n", [2049, 4097])
def test_legendre_gauss_moments(n):
    x, w = _legendre_gauss(n)
    for j in (0, 1, 10, 50, 100):
        assert abs(float(np.sum(w * x ** (2 * j))) - 2.0 / (2 * j + 1)) \
            <= 1e-14


def test_legendre_gauss_symmetry_and_read_only():
    x, w = _legendre_gauss(129)
    assert x[64] == 0.0
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert not x.flags.writeable and not w.flags.writeable


def test_order_rule_and_cap_warning():
    m = _coherent_model()
    for t, want in ((0.0, 129), (5.0, 513), (20.0, 2049), (50.0, 4097),
                    (100.0, 4097)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nodes, w, order = _gl_nodes(m, t)
        assert order == want == len(nodes) == len(w)
        if t < 100.0:
            assert not caught
        else:
            assert [str(c.message) for c in caught] == [
                "size quadrature order capped at 4097 but the spectral "
                "phase still varies by 0.71 between nodes; results may "
                "lose accuracy"]


@pytest.mark.parametrize("kind, p, across_zero", [
    ("coherent", 1.0, True),  # comb window about -9..34
    ("coherent", 5.0, False),  # about 42..85
    ("coherent", -5.0, False),
    ("eigenstate", 1.0, False),
])
def test_order_rule_reads_live_sines(kind, p, across_zero):
    # The order leaves 129 once the phase spread between nodes reaches
    # pi/8, at a time set by the first and last nonzero sine.
    m = RandomBoxModel(PAR, 1.0, 0.02, kind=kind, q_rel=0.3, p=p,
                       eigen_index=3)
    live = np.nonzero(m.coefficients_for(m.l_center))[0] + 1
    assert (live[0] == 1) == across_zero
    lo, hi = m.support
    slope = PAR.hbar * math.pi**2 * (live[-1]**2 - live[0]**2) \
        * (hi - lo) / (4.0 * PAR.mass * lo**3)
    if kind == "eigenstate":
        assert slope == 0.0 and _gl_nodes(m, 1e9)[2] == 129
        return
    t_edge = math.pi / 8.0 * 129 / slope
    assert _gl_nodes(m, t_edge * (1.0 - 1e-9))[2] == 129
    assert _gl_nodes(m, t_edge * (1.0 + 1e-9))[2] == 257


@pytest.mark.parametrize("q_rel", [0.3, -0.45])
def test_coefficient_table_matches_box_coefficients(q_rel):
    m = RandomBoxModel(PAR, 1.0, 0.02, kind="coherent", q_rel=q_rel, p=1.0)
    nodes, _, _ = _gl_nodes(m, 0.0, 2049)
    k, table = m.coefficient_table(nodes)
    assert np.array_equal(k, np.arange(1, table.shape[1] + 1))
    for l, row in zip(nodes, table):
        par = PhysicalParams(PAR.hbar, PAR.mass, PAR.alpha, float(l))
        phase = PhasePoint(q_rel * float(l), 1.0)
        b = box_coefficients(par, phase) / math.sqrt(box_norm_sq(par, phase))
        assert np.max(np.abs(row[:len(b)] - b)) <= 1e-14
        assert np.array_equal(np.nonzero(row)[0], np.nonzero(b)[0])


def test_coefficient_table_eigenstate():
    m = RandomBoxModel(PAR, 1.0, 0.02, kind="eigenstate", eigen_index=3)
    k, table = m.coefficient_table([0.95, 1.0, 1.05])
    assert np.array_equal(k, [1, 2, 3])
    assert np.array_equal(table, np.tile([0.0, 0.0, 1.0], (3, 1)))
    assert np.array_equal(m.coefficients_for(1.0), [0.0, 0.0, 1.0])


def test_eigenstate_table_respects_mode_cap(monkeypatch):
    monkeypatch.setattr(theta, "MODE_CAP", 1000)
    m = RandomBoxModel(PAR, 1.0, 0.02, kind="eigenstate", eigen_index=1001)
    with pytest.raises(CapacityError, match="1001 modes"):
        m.coefficient_table([1.0])
    m = RandomBoxModel(PAR, 1.0, 0.02, kind="eigenstate", eigen_index=1000)
    assert m.coefficient_table([1.0])[1].shape == (1, 1000)


@pytest.mark.parametrize("cap", [1, 500])
def test_node_blocking_agrees(cap, monkeypatch):
    m = _coherent_model()
    x = np.linspace(-1.08, 1.08, 37)

    def run():
        return (p_xt(m, x, 5.0), delta_correction(m, x), uniform_part(m, x),
                time_average_density(m, x, order=129))

    monkeypatch.setattr(randombox, "NODE_BLOCK_CAP", 2**40)
    whole = run()
    monkeypatch.setattr(randombox, "NODE_BLOCK_CAP", cap)
    blocks = []
    node_blocks = randombox._node_blocks

    def counting(*args):
        blocks.append(node_blocks(*args))
        return blocks[-1]

    monkeypatch.setattr(randombox, "_node_blocks", counting)
    for a, b in zip(run(), whole):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
    assert all(len(b) > 1 for b in blocks)


# Sine-basis forms of the densities, one size node at a time: psi_l is
# sum_k c_k sin(pi k (x - l) / 2l) / sqrt(l) inside the box, 0 outside.
# Phases are rounded as in randombox: at K = 417 and t = 5 they reach
# 5e4 rad, where another rounding order moves densities by 1e-13.

def _sine_basis(l, k, x):
    inside = np.abs(x)[:, None] <= l
    return np.where(inside, np.sin(math.pi * k * (x[:, None] - l) / (2 * l)),
                    0.0) / math.sqrt(l)


def _sine_p_xt(model, x, t, order):
    nodes, weights, _ = (_gl_nodes(model, t) if order is None
                         else _gl_nodes(model, 0.0, order))
    k, table = model.coefficient_table(nodes)
    par = model.template
    out = np.zeros_like(x)
    for l, w, b in zip(nodes, weights * model.f_density(nodes), table):
        phases = np.exp(-1j * par.hbar * t * (math.pi * k / (2.0 * l)) ** 2
                        / (2.0 * par.mass))
        out += w * np.abs(_sine_basis(l, k, x) @ (b * phases)) ** 2
    return out


def _sine_delta(model, x):
    nodes, weights, _ = _gl_nodes(model, 0.0)
    k, table = model.coefficient_table(nodes)
    out = np.zeros_like(x)
    for l, w, b in zip(nodes, weights * model.f_density(nodes) / (2 * nodes),
                       table):
        cosses = np.cos(math.pi * k * (x[:, None] - l) / l)
        out += w * (np.abs(x) <= l) * (cosses @ np.abs(b) ** 2)
    return out


def _sine_time_average(model, x, order, t_start, window, n_samples):
    nodes, weights, _ = _gl_nodes(model, 0.0, order)
    k, table = model.coefficient_table(nodes)
    dt = window / n_samples
    t_mid = t_start + 0.5 * (n_samples - 1) * dt
    out = np.zeros_like(x)
    for l, w, b in zip(nodes, weights * model.f_density(nodes), table):
        omega = model.template.hbar * (math.pi * k / (2.0 * l)) ** 2 \
            / (2.0 * model.template.mass)
        half = 0.5 * dt * (omega[:, None] - omega[None, :])
        den = n_samples * np.sin(half)
        dirichlet = np.divide(np.sin(n_samples * half), den,
                              out=np.ones_like(den), where=den != 0.0)
        c = b * np.exp(-1j * omega * t_mid)
        kernel = np.real(np.outer(c, np.conj(c))) * dirichlet
        basis = _sine_basis(l, k, x)
        out += w * np.einsum("pk,kj,pj->p", basis, kernel, basis)
    return out


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _wall_points(model, orders):
    # A grid past both ends of the support, plus +-l exactly and 1e-4
    # inside the walls at the first, middle and last node of each order.
    lo, hi = model.support
    x = [np.linspace(-hi - 0.05, hi + 0.05, 41)]
    for order in orders:
        nodes = _gl_nodes(model, 0.0, order)[0][[0, order // 2, -1]]
        x.append(np.outer([1.0, -1.0], [nodes, nodes - 1e-4]))
    return np.concatenate([a.ravel() for a in x])


CHEBYSHEV_MODELS = {
    "coherent K=34": (RandomBoxModel(PAR, 1.0, 0.02, q_rel=0.3, p=1.0),
                      (None, 1, 129)),
    "coherent K=417": (RandomBoxModel(PhysicalParams(0.05, 1.0, 0.01, 1.0),
                                      1.0, 0.02, q_rel=0.3, p=1.0), (1, 9)),
    "eigenstate 1": (RandomBoxModel(PAR, 1.0, 0.02, kind="eigenstate",
                                    eigen_index=1), (None, 1, 129)),
    "eigenstate 4": (RandomBoxModel(PAR, 1.0, 0.02, kind="eigenstate",
                                    eigen_index=4), (None, 1, 129)),
}


@pytest.mark.parametrize("name", CHEBYSHEV_MODELS)
def test_chebyshev_engine_matches_sine_basis(name):
    model, orders = CHEBYSHEV_MODELS[name]
    x = _wall_points(model, [o for o in orders if o] + [129])
    for order in orders:
        for t in (0.0, 5.0):
            _assert_close(p_xt(model, x, t, order=order),
                          _sine_p_xt(model, x, t, order))
        if order is not None:
            _assert_close(
                time_average_density(model, x, 3.0, 2000.0, 4096, order),
                _sine_time_average(model, x, order, 3.0, 2000.0, 4096))
    _assert_close(delta_correction(model, x), _sine_delta(model, x))


def test_chebyshev_time_average_default_order():
    model = _coherent_model()
    x = _wall_points(model, [2049])
    l0 = model.l_center
    t_rev = 16.0 * PAR.mass * l0 * l0 / (math.pi * PAR.hbar)
    _assert_close(time_average_density(model, x),
                  _sine_time_average(model, x, 2049, 10.0 * t_rev,
                                     40.0 * t_rev, 4096))


@settings(max_examples=60, deadline=None)
@given(n_k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       l=st.floats(0.2, 5.0))
def test_chebyshev_density_is_sine_quadratic_form(n_k, seed, l):
    # sin k theta sin k' theta = [T_|k-k'|(u) - T_(k+k')(u)] / 2.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n_k, n_k))
    m += m.T
    k = np.arange(1, n_k + 1)
    coeffs = np.zeros(2 * n_k + 1)
    for i in range(n_k):
        for j in range(n_k):
            coeffs[abs(i - j)] += 0.5 * m[i, j]
            coeffs[i + j + 2] -= 0.5 * m[i, j]
    x = np.concatenate([rng.uniform(-1.2 * l, 1.2 * l, 50), [-l, l]])
    basis = _sine_basis(l, k, x) * math.sqrt(l)
    want = np.einsum("pk,kj,pj->p", basis, m, basis)
    got = _chebyshev_density(np.array([l]), coeffs[None, :], x)[0]
    assert np.max(np.abs(got - want)) <= 1e-14 * n_k * np.sum(np.abs(m))


def test_time_average_memory_bounded():
    # K = 1021 modes: the K x K kernels of a sine-basis average would
    # take tens of MB per node.
    model = RandomBoxModel(PhysicalParams(0.05, 1.0, 0.004, 1.0), 1.0, 0.02,
                           q_rel=0.3, p=1.0)
    x = np.linspace(-1.08, 1.08, 101)
    assert len(model.coefficients_for(1.0)) == 1021
    tracemalloc.start()
    try:
        time_average_density(model, x, order=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
