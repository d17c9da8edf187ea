"""The oracle layer itself: quadrature, brute evolution, reconstruction."""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest

from qrevival.circle import make_circle_state
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
    with pytest.raises(ContractViolation):
        QuadratureSpec(rule="simpson")
    with pytest.raises(ContractViolation):
        QuadratureSpec(nodes=1)


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
