"""Regenerate the golden oracle tables consumed by the test suite.

Every value here is produced by an independent oracle path (direct
series summation or adaptive quadrature of pointwise state samples),
never by the closed-form kernels under test.  Run from the repository
root:

    python3 tests/generate_golden.py
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qrevival.box import box_coefficients  # noqa: E402
from qrevival.oracles import (QuadratureSpec, circle_state_callable,  # noqa: E402
                              quad_inner, write_golden)
from qrevival.params import PhasePoint, PhysicalParams  # noqa: E402
from qrevival.theta import gaussian_packet  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SEED = 20260823


def brute_theta(z: complex, tau: complex, cutoff: int = 4000) -> complex:
    """Direct two-sided summation, no branch switching, no tail rule."""
    total = 0.0 + 0.0j
    for k in range(-cutoff, cutoff + 1):
        total += np.exp(-math.pi * tau * k * k + 2.0j * math.pi * k * z)
    return complex(total)


def gen_theta(rng) -> None:
    rows = []
    for _ in range(30):
        tau = complex(rng.uniform(0.2, 5.0), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3))
        v = brute_theta(z, tau)
        rows.append({"z_re": repr(z.real), "z_im": repr(z.imag),
                     "tau_re": repr(tau.real), "tau_im": repr(tau.imag),
                     "value_re": repr(v.real), "value_im": repr(v.imag)})
    write_golden(os.path.join(GOLDEN_DIR, "theta_values.csv"),
                 {"seed": SEED, "count": 30, "oracle": "direct_summation",
                  "cutoff": 4000}, rows, 1e-12)


def gen_line_overlaps(rng) -> None:
    spec = QuadratureSpec(subdivisions=16)
    rows = []
    for _ in range(20):
        par = PhysicalParams(rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0),
                             rng.uniform(0.2, 0.8), math.pi)
        a = PhasePoint(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
        b = PhasePoint(rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0))
        t = rng.uniform(0.0, 1.5)
        width = 12.0 * max(par.alpha, par.hbar * t
                           / (2.0 * par.mass * par.alpha))
        center = 0.5 * (a.q + b.q + b.p * t / par.mass)
        lo, hi = center - width - 6.0, center + width + 6.0
        val = quad_inner(lambda x: gaussian_packet(par, a, x),
                         lambda x: gaussian_packet(par, b, x, t),
                         (lo, hi), spec)
        rows.append({"hbar": repr(par.hbar), "mass": repr(par.mass),
                     "alpha": repr(par.alpha),
                     "qa": repr(a.q), "pa": repr(a.p),
                     "qb": repr(b.q), "pb": repr(b.p), "t": repr(t),
                     "overlap_re": repr(val.real),
                     "overlap_im": repr(val.imag)})
    write_golden(os.path.join(GOLDEN_DIR, "line_overlaps.csv"),
                 {"seed": SEED, "count": 20, "oracle": "quad_inner"},
                 rows, 1e-11)


def gen_circle_overlaps(rng) -> None:
    spec = QuadratureSpec(subdivisions=16)
    rows = []
    l = math.pi
    for _ in range(20):
        par = PhysicalParams(rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0),
                             rng.uniform(0.2, 0.7), l)
        a = PhasePoint(rng.uniform(-l, l), rng.uniform(-2.0, 2.0))
        b = PhasePoint(rng.uniform(-l, l), rng.uniform(-2.0, 2.0))
        t = rng.uniform(0.0, 2.0)
        val = quad_inner(circle_state_callable(par, a),
                         circle_state_callable(par, b, t), (-l, l), spec)
        rows.append({"hbar": repr(par.hbar), "mass": repr(par.mass),
                     "alpha": repr(par.alpha), "half_length": repr(l),
                     "qa": repr(a.q), "pa": repr(a.p),
                     "qb": repr(b.q), "pb": repr(b.p), "t": repr(t),
                     "overlap_re": repr(val.real),
                     "overlap_im": repr(val.imag)})
    write_golden(os.path.join(GOLDEN_DIR, "circle_overlaps.csv"),
                 {"seed": SEED, "count": 20, "oracle": "quad_inner"},
                 rows, 1e-10)


def box_state_callable(par: PhysicalParams, phase: PhasePoint,
                       t: float = 0.0):
    """Box state as a plain callable via sine-basis synthesis."""
    l = par.half_length
    b = box_coefficients(par, phase)
    k = np.arange(1, len(b) + 1)
    ph = np.exp(-1j * par.hbar * t * (math.pi * k / (2.0 * l)) ** 2
                / (2.0 * par.mass))
    coeff = b * ph

    def f(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        basis = np.sin(math.pi * np.outer(x - l, k) / (2.0 * l)) \
            / math.sqrt(l)
        return basis @ coeff

    return f


def gen_box_overlaps(rng) -> None:
    spec = QuadratureSpec(subdivisions=16)
    rows = []
    l = math.pi
    for _ in range(20):
        par = PhysicalParams(rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0),
                             rng.uniform(0.2, 0.6), l)
        # Stay clear of the wall-degenerate corners (+-l, 0).
        a = PhasePoint(rng.uniform(-0.6 * l, 0.6 * l), rng.uniform(0.8, 2.0))
        b = PhasePoint(rng.uniform(-0.6 * l, 0.6 * l), rng.uniform(0.8, 2.0))
        t = rng.uniform(0.0, 2.0)
        val = quad_inner(box_state_callable(par, a),
                         box_state_callable(par, b, t), (-l, l), spec)
        rows.append({"hbar": repr(par.hbar), "mass": repr(par.mass),
                     "alpha": repr(par.alpha), "half_length": repr(l),
                     "qa": repr(a.q), "pa": repr(a.p),
                     "qb": repr(b.q), "pb": repr(b.p), "t": repr(t),
                     "overlap_re": repr(val.real),
                     "overlap_im": repr(val.imag)})
    write_golden(os.path.join(GOLDEN_DIR, "box_overlaps.csv"),
                 {"seed": SEED, "count": 20, "oracle": "quad_inner"},
                 rows, 1e-10)


def gen_norms(rng) -> None:
    spec = QuadratureSpec(subdivisions=16)
    rows = []
    l = math.pi
    for _ in range(12):
        par = PhysicalParams(rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.0),
                             rng.uniform(0.2, 0.7), l)
        domain = "circle" if rng.uniform() < 0.5 else "box"
        if domain == "circle":
            ph = PhasePoint(rng.uniform(-l, l), rng.uniform(-2.0, 2.0))
            f = circle_state_callable(par, ph)
        else:
            ph = PhasePoint(rng.uniform(-0.6 * l, 0.6 * l),
                            rng.uniform(0.8, 2.0))
            f = box_state_callable(par, ph)
        val = quad_inner(f, f, (-l, l), spec).real
        rows.append({"domain": domain, "hbar": repr(par.hbar),
                     "mass": repr(par.mass), "alpha": repr(par.alpha),
                     "half_length": repr(l), "q": repr(ph.q),
                     "p": repr(ph.p), "norm_sq": repr(val)})
    write_golden(os.path.join(GOLDEN_DIR, "norms.csv"),
                 {"seed": SEED, "count": 12, "oracle": "quad_inner"},
                 rows, 1e-12)


def main() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    rng = np.random.default_rng(SEED)
    gen_theta(rng)
    gen_line_overlaps(rng)
    gen_circle_overlaps(rng)
    gen_box_overlaps(rng)
    gen_norms(rng)
    print("golden tables written to", GOLDEN_DIR)


if __name__ == "__main__":
    main()
