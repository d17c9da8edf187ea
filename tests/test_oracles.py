"""The oracle layer itself: quadrature, brute evolution, reconstruction."""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from test_circle import _peak_bytes

from qrevival import cli, oracles
from qrevival.box import box_coefficient_table, make_box_state
from qrevival.circle import WaveState, comb_coefficients, make_circle_state
from qrevival.oracles import (PhaseGridSpec, QuadratureSpec, bounce_trajectory,
                              brute_evolve, config_hash, quad_inner,
                              read_golden, resolution_residual, write_golden)
from qrevival.params import ContractViolation, PhasePoint, PhysicalParams

L = math.pi


def test_quad_inner_known_integral():
    # integral of cos^2 over a period.
    val = quad_inner(np.cos, np.cos, (0.0, 2.0 * math.pi))
    assert abs(val.real - math.pi) < 1e-13


def test_quad_inner_conjugates_first_argument():
    f = lambda x: np.exp(1j * x)
    g = lambda x: np.exp(2j * x)
    val = quad_inner(f, g, (0.0, 2.0 * math.pi))
    assert abs(val) < 1e-12
    val2 = quad_inner(f, f, (0.0, 2.0 * math.pi))
    assert abs(val2 - 2.0 * math.pi) < 1e-12


def test_quadrature_spec_validation():
    # With no panels the doubling never starts: two zero estimates agree.
    with pytest.raises(ContractViolation):
        QuadratureSpec(subdivisions=0)


def test_brute_evolve_rejects_unresolved_grid():
    par = PhysicalParams(0.002, 1.0, 0.05, L)
    state = make_circle_state(par, PhasePoint(0.0, 1.0))
    n = 64  # far too coarse for hundreds of active modes
    x = -L + 2.0 * L / n * np.arange(n)
    from qrevival.circle import eval_state
    psi = eval_state(state, x)
    with pytest.raises(ContractViolation):
        brute_evolve(psi, par, 0.1, "circle")


def test_brute_evolve_is_unitary():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    state = make_circle_state(par, PhasePoint(0.2, 1.0))
    n = 512
    x = -L + 2.0 * L / n * np.arange(n)
    from qrevival.circle import eval_state
    psi = eval_state(state, x)
    out = brute_evolve(psi, par, 1.3, "circle")
    h = 2.0 * L / n
    assert abs(np.sum(np.abs(out) ** 2) * h
               - np.sum(np.abs(psi) ** 2) * h) < 1e-12


def test_bounce_trajectory_period():
    ph = PhasePoint(0.3, 1.2)
    m = 1.0
    t_cl = 4.0 * L * m / ph.p
    end = bounce_trajectory(ph, L, m, t_cl)
    assert abs(end.q - ph.q) < 1e-10
    assert abs(end.p - ph.p) < 1e-12


def test_resolution_residual_coherent():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    state = make_circle_state(par, PhasePoint(0.4, 0.5))
    unit = dataclasses.replace(
        state, coefficients=state.coefficients / math.sqrt(state.norm_sq()))
    res = resolution_residual(unit, PhaseGridSpec(nq=256, np_=256,
                                                  p_centers=(0.5,)))
    assert res < 1e-6


def test_resolution_residual_eigenstate():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    from qrevival.circle import WaveState
    e3 = WaveState("circle", par, 3, np.array([1.0 + 0.0j]), 0.0, None)
    center = 3.0 * math.pi * par.hbar / L
    res = resolution_residual(e3, PhaseGridSpec(nq=256, np_=256,
                                                p_centers=(center, -center)))
    assert res < 1e-5


def _per_momentum_residual(state, grid):
    """Reconstruction residual with one coefficient matrix per momentum
    node, on ``resolution_residual``'s nodes, windows and mode range."""
    par = state.params
    l = par.half_length
    halfwidth = 8.0 * par.hbar / par.alpha
    for _ in range(oracles.MAX_WIDENINGS + 1):
        centers = np.asarray(grid.p_centers, dtype=float)
        windows = oracles._merge_windows(centers - halfwidth,
                                         centers + halfwidth)
        p_lo = np.array([w[0] for w in windows])
        p_hi = np.array([w[1] for w in windows])
        if oracles._window_discard(par, state, p_lo, p_hi) <= 1e-8:
            break
        halfwidth *= 1.5
    basis_l = l if state.domain == "circle" else 2.0 * l
    pad = int(math.ceil(basis_l * math.sqrt(40.0)
                        / (math.pi * par.alpha))) + 2
    k_from_p = [basis_l * pp / (math.pi * par.hbar)
                for pp in np.concatenate([p_lo, p_hi])]
    k_lo = min(int(state.k_values[0]), math.floor(min(k_from_p))) - pad
    k_hi = max(int(state.k_values[-1]), math.ceil(max(k_from_p))) + pad
    if state.domain == "box":
        k_lo = max(k_lo, 1)
        k_hi = max(k_hi, int(state.k_values[-1]))
    k = np.arange(k_lo, k_hi + 1)
    c = np.zeros(len(k), dtype=complex)
    c[int(state.k_values[0]) - k_lo:
      int(state.k_values[-1]) - k_lo + 1] = state.coefficients
    dq = 2.0 * l / grid.nq
    q = -l + dq * (np.arange(grid.nq) + 0.5)
    total_span = float(np.sum(p_hi - p_lo))
    rec = np.zeros_like(c)
    for lo, hi in zip(p_lo, p_hi):
        np_win = max(int(round(grid.np_ * (hi - lo) / total_span)), 2)
        dp = (hi - lo) / np_win
        for j in range(np_win):
            p = lo + dp * (j + 0.5)
            if state.domain == "circle":
                mat = comb_coefficients(par, k, q[:, None], p, l)
            else:
                k_tab, table = box_coefficient_table(par, q, p, l)
                mat = np.zeros((len(q), len(k)), dtype=complex)
                n = min(len(k_tab), len(k))
                mat[:, :n] = table[:, :n]
            ov = np.conjugate(mat) @ c
            rec += (mat.T @ ov) * (dq * dp)
    rec /= 2.0 * math.pi * par.hbar
    return float(np.linalg.norm(rec - c) / np.linalg.norm(c))


def _unit(state):
    return dataclasses.replace(
        state, coefficients=state.coefficients / math.sqrt(state.norm_sq()))


def _resolution_cases():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    center = 3.0 * math.pi * par.hbar / L
    return {
        "circle-coherent": (
            _unit(make_circle_state(par, PhasePoint(0.4, 0.5))),
            PhaseGridSpec(nq=256, np_=256, p_centers=(0.5,))),
        "circle-eigenstate": (
            WaveState("circle", par, 3, np.array([1.0 + 0.0j]), 0.0, None),
            PhaseGridSpec(nq=256, np_=256, p_centers=(center, -center))),
        "box-coherent": (
            _unit(make_box_state(par, PhasePoint(0.4, 1.0))),
            PhaseGridSpec(nq=128, np_=128, p_centers=(1.0, -1.0))),
    }


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("case", sorted(_resolution_cases()))
def test_resolution_residual_matches_per_momentum_loop(case, coarse):
    # The momentum blocks batch the same nodes as one matrix per
    # momentum would, so the residuals agree to rounding.  On the coarse
    # grid the residual (1e-2 to 1e-1) depends on where the nodes sit.
    state, grid = _resolution_cases()[case]
    if coarse:
        grid = dataclasses.replace(grid, nq=32, np_=16)
    got = resolution_residual(state, grid)
    want = _per_momentum_residual(state, grid)
    assert abs(got - want) <= 1e-15
    assert got > 1e-3 if coarse else got < 1e-5


def test_resolution_check_memory():
    # Momentum blocks hold at most 2**17 coefficients (2 MB complex).
    assert _peak_bytes(cli._check_resolution) < 4 * 2**20


def test_resolution_residual_requires_unit_norm():
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    state = make_circle_state(par, PhasePoint(0.4, 0.5))
    scaled = dataclasses.replace(state,
                                 coefficients=2.0 * state.coefficients)
    with pytest.raises(ContractViolation):
        resolution_residual(scaled)


def test_golden_round_trip():
    rows = [{"a": repr(1.5), "b": repr(-2.25)},
            {"a": repr(0.1), "b": repr(0.2)}]
    config = {"seed": 7, "note": "round-trip"}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        write_golden(path, config, rows, 1e-9)
        cfg, tol, body = read_golden(path)
    assert cfg == config
    assert tol == 1e-9
    assert float(body[0]["a"]) == 1.5
    assert float(body[1]["b"]) == 0.2


def test_config_hash_stability():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
