"""Position statistics in a box whose size carries a random error.

The box half-size l is a random variable with density f(l).  The mixed
position density P(x, t) averages |psi_l(x, t)|^2 over f; unlike the
fixed-size box it is not periodic in time and settles (in time average)
to a limit P_inf(x) that splits into a "uniform part" minus a
state-dependent correction Delta(x).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .box import box_coefficients, box_norm_sq
from .params import ContractViolation, DomainError, PhasePoint, \
    PhysicalParams


@dataclass(frozen=True)
class RandomBoxModel:
    """Random-half-size box with a state family psi_l.

    The half-size density f is a truncated Gaussian centred at
    ``l_center`` with width ``l_sigma``, supported on
    [l_center - 4 sigma, l_center + 4 sigma] (which must stay positive)
    and renormalized there.

    The state family is either:
      * kind="coherent": psi_l is the box coherent state at
        (q_rel * l, p), unit-normalized, with the template's
        (hbar, mass, alpha) fixed across l;
      * kind="eigenstate": psi_l is the k-th box eigenfunction.
    """

    template: PhysicalParams
    l_center: float
    l_sigma: float
    kind: str = "coherent"
    q_rel: float = 0.0
    p: float = 0.0
    eigen_index: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("coherent", "eigenstate"):
            raise ContractViolation(f"unknown family kind {self.kind!r}")
        if not self.l_sigma > 0.0:
            raise DomainError("l_sigma must be positive")
        if self.l_center - 4.0 * self.l_sigma <= 0.0:
            raise DomainError(
                "support of the size density must stay positive: need "
                "l_center > 4 * l_sigma")

    @property
    def support(self) -> tuple[float, float]:
        return (self.l_center - 4.0 * self.l_sigma,
                self.l_center + 4.0 * self.l_sigma)

    def f_density(self, l) -> np.ndarray:
        """Truncated-Gaussian half-size density, normalized on support."""
        l = np.asarray(l, dtype=float)
        z = (l - self.l_center) / self.l_sigma
        raw = np.exp(-0.5 * z * z) / (self.l_sigma * math.sqrt(2.0 * math.pi))
        # Mass inside +-4 sigma of a unit Gaussian.
        inside = math.erf(4.0 / math.sqrt(2.0))
        lo, hi = self.support
        return np.where((l >= lo) & (l <= hi), raw / inside, 0.0)

    def params_for(self, l: float) -> PhysicalParams:
        t = self.template
        return PhysicalParams(t.hbar, t.mass, t.alpha, l)

    def coefficients_for(self, l: float) -> np.ndarray:
        """Unit-normalized sine-basis coefficients of psi_l (modes 1..K)."""
        par = self.params_for(l)
        if self.kind == "eigenstate":
            b = np.zeros(self.eigen_index, dtype=complex)
            b[-1] = 1.0
            return b
        phase = PhasePoint(self.q_rel * l, self.p)
        b = box_coefficients(par, phase)
        nrm = math.sqrt(box_norm_sq(par, phase))
        return b / nrm


def odd_periodic_extend(psi: Callable[[np.ndarray], np.ndarray], x,
                        half_length: float) -> np.ndarray:
    """Extend a box function to the line: psi(x) = (-1)^n psi((-1)^n u)
    with x = u + 2 n l, u in [-l, l].

    The extension is odd about each wall and 4l-periodic.
    """
    x = np.asarray(x, dtype=float)
    l = half_length
    n = np.round(x / (2.0 * l)).astype(int)
    u = x - 2.0 * n * l
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    return sign * np.asarray(psi(sign * u))


def _sine_basis(l: float, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.sin(math.pi * np.outer(x - l, k) / (2.0 * l)) / math.sqrt(l)


def _gl_nodes(model: RandomBoxModel, t: float, order: int | None = None
              ) -> tuple[np.ndarray, np.ndarray, int]:
    """Gauss-Legendre nodes/weights over the f support.

    The order grows until the fastest retained spectral phase difference
    changes by less than pi/8 between adjacent nodes at the requested
    time.  The density only sees frequency differences, so a single-mode
    state never escalates the order.
    """
    lo, hi = model.support
    par = model.template
    order = 129 if order is None else order
    b0 = model.coefficients_for(model.l_center)
    live = np.nonzero(np.abs(b0) > 0.0)[0] + 1
    k_lo = int(live[0]) if len(live) else 1
    k_hi = int(live[-1]) if len(live) else 1
    while True:
        x0, w0 = np.polynomial.legendre.leggauss(order)
        nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x0
        weights = 0.5 * (hi - lo) * w0
        dl = (hi - lo) / order
        # d/dl of hbar pi^2 (k_hi^2 - k_lo^2) t / (8 m l^2) is
        # -(2/l) times the phase difference.
        phase_slope = par.hbar * math.pi**2 * (k_hi**2 - k_lo**2) * abs(t) \
            / (4.0 * par.mass * lo**3)
        if phase_slope * dl < math.pi / 8.0 or order >= 4097:
            if phase_slope * dl >= math.pi / 8.0:
                warnings.warn(
                    "size quadrature order capped at 4097 but the "
                    f"spectral phase still varies by {phase_slope * dl:.2f} "
                    "between nodes; results may lose accuracy")
            return nodes, weights, order
        order = 2 * order - 1


def p_xt(model: RandomBoxModel, x, t: float,
         order: int | None = None) -> np.ndarray:
    """Mixed position density P(x, t) on an array of positions.

    ``order`` pins the size-quadrature order; by default it adapts to
    the requested time.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if order is None:
        nodes, weights, _ = _gl_nodes(model, t)
    else:
        nodes, weights, _ = _gl_nodes(model, 0.0, order)
    par = model.template
    out = np.zeros_like(x)
    fvals = model.f_density(nodes)
    for l, w, fv in zip(nodes, weights, fvals):
        b = model.coefficients_for(float(l))
        k = np.arange(1, len(b) + 1)
        phases = np.exp(-1j * par.hbar * t
                        * (math.pi * k / (2.0 * l)) ** 2 / (2.0 * par.mass))
        inside = np.abs(x) <= l
        if not np.any(inside):
            continue
        psi = _sine_basis(float(l), k, x[inside]) @ (b * phases)
        out[inside] += w * fv * np.abs(psi) ** 2
    return out


def uniform_part(model: RandomBoxModel, x) -> np.ndarray:
    """The flat component integral of chi_l(x) f(l) / (2l) over l."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes, weights, _ = _gl_nodes(model, 0.0)
    fvals = model.f_density(nodes)
    out = np.zeros_like(x)
    for l, w, fv in zip(nodes, weights, fvals):
        out += np.where(np.abs(x) <= l, w * fv / (2.0 * l), 0.0)
    return out


def delta_correction(model: RandomBoxModel, x) -> np.ndarray:
    """Correction Delta(x) with P_inf(x) = uniform_part(x) - Delta(x).

    Spectrally, Delta integrates (chi_l / 2l) sum_k |a_k|^2
    cos(pi k (x - l) / l) over the size density.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes, weights, _ = _gl_nodes(model, 0.0)
    fvals = model.f_density(nodes)
    out = np.zeros_like(x)
    for l, w, fv in zip(nodes, weights, fvals):
        b = model.coefficients_for(float(l))
        k = np.arange(1, len(b) + 1)
        inside = np.abs(x) <= l
        if not np.any(inside):
            continue
        cosses = np.cos(math.pi * np.outer(x[inside] - l, k) / l)
        out[inside] += w * fv / (2.0 * l) * (cosses @ np.abs(b) ** 2)
    return out


def p_inf(model: RandomBoxModel, x, method: str = "spectral") -> np.ndarray:
    """Long-time-average position density.

    method="spectral" uses the time-averaged mode expansion; method
    "inner" computes 1 - Re(psi, psi(. + 2x - 2l) + psi(. - 2x + 2l))/2
    with the shifted states read through the odd-periodic extension.
    The two paths agree within quadrature tolerance.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if method == "spectral":
        return uniform_part(model, x) - delta_correction(model, x)
    if method != "inner":
        raise ContractViolation(f"unknown method {method!r}")
    nodes, weights, _ = _gl_nodes(model, 0.0)
    fvals = model.f_density(nodes)
    out = np.zeros_like(x)
    for l, w, fv in zip(nodes, weights, fvals):
        l = float(l)
        b = model.coefficients_for(l)
        k = np.arange(1, len(b) + 1)
        ng = max(512, 16 * len(b))
        yg = -l + 2.0 * l / ng * (np.arange(ng) + 0.5)
        basis = _sine_basis(l, k, yg)
        psig = basis @ b

        def psi_call(y, l=l, b=b, k=k):
            return _sine_basis(l, k, np.atleast_1d(y)) @ b

        inside = np.abs(x) <= l
        for i in np.nonzero(inside)[0]:
            shift = 2.0 * x[i] - 2.0 * l
            plus = odd_periodic_extend(psi_call, yg + shift, l)
            minus = odd_periodic_extend(psi_call, yg - shift, l)
            inner = np.sum(np.conjugate(psig) * (plus + minus)) \
                * (2.0 * l / ng)
            out[i] += w * fv / (2.0 * l) * (1.0 - 0.5 * float(inner.real))
    return out


def time_average_density(model: RandomBoxModel, x, t_start: float | None
                         = None, window: float | None = None,
                         n_samples: int = 4096, order: int = 2049
                         ) -> np.ndarray:
    """Average of P(x, t) over n_samples equispaced times in
    [t_start, t_start + window].

    Defaults: t_start = 10 T_rev(l_center), window = 40 T_rev(l_center).
    The sample average of each oscillating mode pair is a geometric sum,
    evaluated in closed form; for a fixed set of size-quadrature nodes
    the result is identical (up to rounding) to brute-force averaging of
    the sampled densities.  The averaged kernel is smooth on the mode
    diagonal and strongly damped off it, so a fixed ``order`` replaces
    the single-time node-spacing rule.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    par = model.template
    l0 = model.l_center
    t_rev = 16.0 * par.mass * l0 * l0 / (math.pi * par.hbar)
    if t_start is None:
        t_start = 10.0 * t_rev
    if window is None:
        window = 40.0 * t_rev
    dt = window / n_samples
    nodes, weights, _ = _gl_nodes(model, 0.0, order)
    fvals = model.f_density(nodes)
    out = np.zeros_like(x)
    for l, w, fv in zip(nodes, weights, fvals):
        l = float(l)
        b = model.coefficients_for(l)
        k = np.arange(1, len(b) + 1)
        omega = par.hbar * (math.pi * k / (2.0 * l)) ** 2 / (2.0 * par.mass)
        dw = omega[:, None] - omega[None, :]
        # Mean of exp(-i dw (t_start + j dt)) over j = 0..n-1.
        z = np.exp(-1j * dw * dt)
        num = np.where(np.isclose(z, 1.0), n_samples + 0j,
                       (1.0 - z**n_samples) / np.where(z == 1.0, 1.0, 1.0 - z))
        kernel = np.exp(-1j * dw * t_start) * num / n_samples
        inside = np.abs(x) <= l
        if not np.any(inside):
            continue
        basis = _sine_basis(l, k, x[inside])
        weighted = (b[:, None] * np.conjugate(b[None, :])) * kernel
        dens = np.einsum("xk,kl,xl->x", basis, weighted,
                         np.conjugate(basis)).real
        out[inside] += w * fv * dens
    return out
