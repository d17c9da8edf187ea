"""Theta kernel, free packets, and the closed-form line overlap."""

import importlib
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrevival.oracles import QuadratureSpec, quad_inner, read_golden
from qrevival.params import CapacityError, DomainError, PhasePoint, \
    PhysicalParams, RangeError
from qrevival.theta import (dispersion, gaussian_overlap, gaussian_packet,
                            overlap_core, theta)

kernels = importlib.import_module("qrevival.theta")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_theta_known_value():
    # Direct summation of exp(-pi k^2): 1 + 2e^-pi + 2e^-4pi + ...
    expected = 1.0 + 2.0 * sum(math.exp(-math.pi * k * k)
                               for k in range(1, 20))
    assert abs(theta(0.0, 1.0) - expected) < 1e-15
    assert abs(theta(0.0, 1.0) - 1.0864348112) < 1e-10


@pytest.mark.parametrize("tau", [complex(1e-6, 0.5), complex(1e-300, 0.4)])
def test_theta_refuses_windows_above_cap(monkeypatch, tau):
    # The cheaper form needs about 3570 terms, or about 3e150.
    monkeypatch.setattr(kernels, "MODE_CAP", 1000)
    with pytest.raises(CapacityError, match="theta needs"):
        theta(0.1, tau)


def test_theta_against_golden():
    config, tol, rows = read_golden(os.path.join(GOLDEN, "theta_values.csv"))
    assert config["oracle"] == "direct_summation"
    for row in rows:
        z = complex(float(row["z_re"]), float(row["z_im"]))
        tau = complex(float(row["tau_re"]), float(row["tau_im"]))
        want = complex(float(row["value_re"]), float(row["value_im"]))
        got = theta(z, tau)
        assert abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("seed", range(6))
def test_theta_modular_identity(seed):
    rng = np.random.default_rng(seed)
    tau = complex(rng.uniform(0.2, 5.0), rng.uniform(-0.4, 0.4))
    z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3))
    lhs = theta(z / (1j * tau), 1.0 / tau)
    rhs = np.sqrt(tau) * np.exp(math.pi * z * z / tau) * theta(z, tau)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_theta_branch_continuity():
    # Values straddling the representation switch at |tau| = 1 agree.
    z = 0.3 + 0.05j
    left = theta(z, 1.0 - 1e-9)
    right = theta(z, 1.0 + 1e-9)
    assert abs(left - right) < 1e-7 * abs(right)


def test_theta_overflow_guard():
    with pytest.raises(RangeError):
        theta(500.0j, 1.0)


@pytest.mark.parametrize("tau", [0.0, -0.5 + 2.0j, complex("nan")])
def test_theta_domain_guard(tau):
    with pytest.raises(DomainError):
        theta(0.1, tau)


def brute_theta(z: complex, tau: complex, cutoff: int = 200):
    """Two-sided defining series, no modular switch and no window rule.

    The phase exp(-i pi Im(tau) k^2) is reduced with exact rational
    arithmetic, so large Im tau costs no accuracy.  Returns the sum and
    the sum of the terms' moduli, the scale of its rounding.
    """
    b = Fraction(tau.imag)
    total, scale = 0j, 0.0
    for k in range(-cutoff, cutoff + 1):
        turn = float(b * k * k % 2)
        term = math.exp(-math.pi * tau.real * k * k) \
            * complex(math.cos(math.pi * turn), -math.sin(math.pi * turn)) \
            * complex(np.exp(2j * math.pi * k * z))
        total += term
        scale += abs(term)
    return total, scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tau_re=st.floats(0.05, 5.0), tau_im=st.floats(-30.0, 30.0),
       z_re=st.floats(-1.5, 1.5), z_im=st.floats(-0.3, 0.3))
def test_theta_against_brute_force(tau_re, tau_im, z_re, z_im):
    tau = complex(tau_re, tau_im)
    z = complex(z_re, z_im)
    want, scale = brute_theta(z, tau)
    # Relative to |theta| away from its zeros; near a zero, relative to
    # the terms' moduli, below which no summation order can resolve it.
    assert abs(theta(z, tau) - want) <= 1e-12 * max(abs(want), 1e-3 * scale)


@pytest.mark.parametrize("tau", [0.3 + 0.2j, 0.05 + 17.3j, 2.0 - 0.1j,
                                 0.9 + 0.45j])
def test_theta_array_z_matches_scalar(tau, rng):
    z = rng.uniform(-1.5, 1.5, (3, 4)) + 1j * rng.uniform(-0.3, 0.3, (3, 4))
    got = theta(z, tau)
    assert got.shape == z.shape
    want = np.array([[theta(complex(v), tau) for v in row] for row in z])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert isinstance(theta(0.1, tau), complex)


@pytest.mark.parametrize("tau", [0.37 + 0.25j, 0.05 - 0.375j, 1.5 + 0.125j])
def test_theta_im_tau_reduction(tau):
    # Dyadic Im tau keeps tau + k i exact, so the reduction is exact too.
    z = np.array([0.3 + 0.05j, -1.2 - 0.2j, 0.0])
    base = theta(z, tau)
    for k in (-3, 1, 7, 250):
        assert np.array_equal(theta(z, tau + 2j * k), base)
    assert np.array_equal(theta(z, tau + 1j), theta(z + 0.5, tau))
    assert np.array_equal(theta(z, tau - 3j), theta(z + 0.5, tau))


def test_packet_normalization():
    par = PhysicalParams(0.1, 1.0, 0.35, math.pi)
    ph = PhasePoint(0.2, 1.3)
    for t in (0.0, 0.8):
        val = quad_inner(lambda x: gaussian_packet(par, ph, x, t),
                         lambda x: gaussian_packet(par, ph, x, t),
                         (-30.0, 30.0), QuadratureSpec(subdivisions=32))
        assert abs(val.real - 1.0) < 1e-12


def test_dispersion_matches_second_moment():
    par = PhysicalParams(0.2, 1.3, 0.4, math.pi)
    ph = PhasePoint(-0.3, 0.9)
    t = 0.7
    spec = QuadratureSpec(subdivisions=32)
    center = ph.q + ph.p * t / par.mass

    def weighted(x):
        return (x - center) * gaussian_packet(par, ph, x, t)

    second = quad_inner(weighted, weighted, (-40.0, 40.0), spec).real
    assert abs(math.sqrt(second) - dispersion(par, t)) < 1e-8


def test_dispersion_time_scaling():
    par = PhysicalParams(0.2, 1.0, 0.3, math.pi)
    spread = par.hbar / (2.0 * par.mass * par.alpha)
    for t in (0.5, 1.7):
        expect = math.sqrt(par.alpha**2 + (spread * t) ** 2)
        assert abs(dispersion(par, t) - expect) < 1e-15


def test_overlap_against_golden():
    _, tol, rows = read_golden(os.path.join(GOLDEN, "line_overlaps.csv"))
    for row in rows:
        par = PhysicalParams(float(row["hbar"]), float(row["mass"]),
                             float(row["alpha"]), math.pi)
        a = PhasePoint(float(row["qa"]), float(row["pa"]))
        b = PhasePoint(float(row["qb"]), float(row["pb"]))
        want = complex(float(row["overlap_re"]), float(row["overlap_im"]))
        got = gaussian_overlap(par, a, b, float(row["t"]))
        assert abs(got - want) < tol


def test_overlap_position_shift():
    par = PhysicalParams(0.1, 1.0, 0.3, math.pi)
    for delta in (0.1, 0.7, 1.9):
        ov = gaussian_overlap(par, PhasePoint(0.2, 0.8),
                              PhasePoint(0.2 + delta, 0.8), 0.0)
        assert abs(abs(ov) - math.exp(-delta**2 / (8.0 * par.alpha**2))) \
            < 1e-14


def test_overlap_self_is_one():
    par = PhysicalParams(0.07, 2.0, 0.5, math.pi)
    ph = PhasePoint(-1.1, 0.6)
    assert abs(gaussian_overlap(par, ph, ph, 0.0) - 1.0) < 1e-15


def test_overlap_core_broadcasts(rng):
    par = PhysicalParams(0.1, 1.0, 0.3, math.pi)
    qb = rng.uniform(-1.0, 1.0, size=(4, 1))
    pb = rng.uniform(-1.0, 1.0, size=(1, 5))
    vals = overlap_core(par, 0.2, 0.5, qb, pb, 0.4)
    assert vals.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            single = gaussian_overlap(par, PhasePoint(0.2, 0.5),
                                      PhasePoint(qb[i, 0], pb[0, j]), 0.4)
            assert abs(vals[i, j] - single) < 1e-15
