"""Phase-space correspondence: Husimi densities, classical transport,
semiclassical schedules, and weak pairings against a test family.

The bridge between quantum and classical pictures is measured weakly:
densities (quantum transition densities, Husimi functions of mixtures,
transported classical densities, predicted limit profiles) are paired
against a fixed finite family of test functions, and convergence is the
decay of the worst pairing discrepancy along a semiclassical schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .box import odd_overlap
from .circle import LimitProfile, time_scales
from .params import ContractViolation, DomainError, PhasePoint, \
    PhysicalParams, wrap_position
from .theta import image_window, periodized_overlap


# ---------------------------------------------------------------------------
# Density-operator mixtures and the Husimi transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityOperatorMixture:
    """Convex mixture of normalized coherent-state projectors.

    atoms: tuple of (weight, PhasePoint); weights sum to 1.  ``time`` is
    the evolution time applied to every atom.  Each projector is divided
    by the squared norm of its (unnormalized) coherent state.
    """

    params: PhysicalParams
    domain: str
    atoms: tuple[tuple[float, PhasePoint], ...]
    time: float = 0.0

    def __post_init__(self) -> None:
        if self.domain not in ("circle", "box"):
            raise ContractViolation(f"unknown domain {self.domain!r}")
        total = sum(w for w, _ in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ContractViolation(
                f"mixture weights sum to {total!r}, expected 1")
        if any(w < 0.0 for w, _ in self.atoms):
            raise ContractViolation("mixture weights must be non-negative")

    def evolved(self, t: float) -> "DensityOperatorMixture":
        return DensityOperatorMixture(self.params, self.domain, self.atoms,
                                      self.time + t)

    def atom_norms_sq(self) -> np.ndarray:
        """Squared norms of the atoms' coherent states: each atom's
        overlap with itself, in one broadcast call."""
        q = np.array([ph.q for _, ph in self.atoms])
        p = np.array([ph.p for _, ph in self.atoms])
        return _overlaps(self.params, self.domain, q, p, q, p, 0.0).real


def husimi(rho: DensityOperatorMixture, phase: PhasePoint) -> float:
    """Husimi density of the mixture at one phase point."""
    return float(husimi_grid(rho, np.array([phase.q]),
                             np.array([phase.p]))[0, 0])


def husimi_grid(rho: DensityOperatorMixture, q: np.ndarray, p: np.ndarray
                ) -> np.ndarray:
    """Husimi density on a (q, p) product grid; shape (len(q), len(p)).

    (1/2 pi hbar) sum_i w_i |((q,p)-state, atom_i at time t)|^2 divided
    by the atom squared norms.  Vectorized over atoms and positions.  The
    image window follows the labels in each block, so batching the grid
    differently (say, point by point) agrees only to rounding.
    """
    params = rho.params
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    w = np.array([wt for wt, _ in rho.atoms])
    aq = np.array([ph.q for _, ph in rho.atoms])
    ap = np.array([ph.p for _, ph in rho.atoms])
    scale = w / rho.atom_norms_sq()
    out = np.zeros((len(q), len(p)))
    for j, pj in enumerate(p):
        rows = _overlaps(params, rho.domain, q[:, None], pj, aq, ap, rho.time)
        out[:, j] = np.abs(rows) ** 2 @ scale
    return out / (2.0 * math.pi * params.hbar)


def _overlaps(params: PhysicalParams, domain: str, q, p, qb, pb, t: float):
    """Circle or box overlaps ((q, p), (qb, pb) evolved for t), broadcast."""
    if domain == "circle":
        return periodized_overlap(params, q, p, qb, pb, t,
                                  2.0 * params.half_length)
    return odd_overlap(params, q, p, qb, pb, t)


# ---------------------------------------------------------------------------
# Classical phase-space densities and their transport
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalDensity:
    """Classical phase-space probability density with free/bounce transport.

    ``base`` is the density at time 0, a vectorized callable of (q, p)
    with q already reduced to the fundamental domain.  ``time`` is the
    transport applied on evaluation.  ``p_range`` bounds the momentum
    support for quadratures.
    """

    domain: str
    half_length: float
    mass: float
    base: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p_range: tuple[float, float]
    time: float = 0.0

    def evaluate(self, q, p) -> np.ndarray:
        """Density value sigma_t(q, p) (arrays broadcast)."""
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        l = self.half_length
        t = self.time
        if t == 0.0:
            q0, p0 = q, p
        elif self.domain == "circle":
            q0 = (q - p * t / self.mass + l) % (2.0 * l) - l
            p0 = p
        else:
            # Unfold, transport backwards on the doubled circle, fold.
            qp = np.where(p >= 0.0, q - l, l - q)
            pp = np.abs(p)
            back = qp - pp * t / self.mass
            folded = (back + 2.0 * l) % (4.0 * l) - 2.0 * l
            q0 = np.where(folded < 0.0, folded + l, l - folded)
            sign = np.where(folded < 0.0, 1.0, -1.0)
            p0 = sign * pp
        return self.base(q0, p0)

    def transported(self, t: float) -> "ClassicalDensity":
        return ClassicalDensity(self.domain, self.half_length, self.mass,
                                self.base, self.p_range, self.time + t)


def classical_transport(sigma: ClassicalDensity, t: float) -> ClassicalDensity:
    """Liouville transport by free motion (with hard-wall bounces in the
    box): sigma_t(q, p) = sigma(flow_{-t}(q, p))."""
    return sigma.transported(t)


def gaussian_mixture_density(domain: str, half_length: float, mass: float,
                             components: list[tuple[float, float, float,
                                                    float, float]]
                             ) -> ClassicalDensity:
    """Smooth classical density from (weight, q0, p0, sq, sp) Gaussians.

    The q-factor is periodized over the domain (period 2l circle, 4l box
    after unfolding is not needed for construction: the box density is
    simply restricted and the p reflection left to transport).
    """
    l = half_length
    total = sum(w for w, *_ in components)
    period = 2.0 * l

    def base(q, p):
        out = np.zeros(np.broadcast(q, p).shape)
        for w, q0, p0, sq, sp in components:
            n_lo, n_hi = image_window(0.5 / (sq * sq), q0 - float(np.max(q)),
                                      q0 - float(np.min(q)), period)
            qacc = np.zeros_like(out)
            for n in range(n_lo, n_hi + 1):
                qacc += np.exp(-(q - q0 - n * period) ** 2 / (2.0 * sq * sq))
            out += (w / total) * qacc \
                * np.exp(-(p - p0) ** 2 / (2.0 * sp * sp)) \
                / (2.0 * math.pi * sq * sp)
        return out

    p_lo = min(p0 - 7.0 * sp for _, _, p0, _, sp in components)
    p_hi = max(p0 + 7.0 * sp for _, _, p0, _, sp in components)
    return ClassicalDensity(domain, l, mass, base, (p_lo, p_hi))


def grid_density(domain: str, half_length: float, mass: float,
                 q_nodes: np.ndarray, p_nodes: np.ndarray,
                 values: np.ndarray) -> ClassicalDensity:
    """Classical density from non-negative samples on a product grid.

    Bilinear interpolation between nodes, zero outside the p range.
    """
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.0):
        raise ContractViolation("grid density has negative values")
    q_nodes = np.asarray(q_nodes, dtype=float)
    p_nodes = np.asarray(p_nodes, dtype=float)

    def base(q, p):
        qi = np.interp(q, q_nodes, np.arange(len(q_nodes)))
        pi = np.interp(p, p_nodes, np.arange(len(p_nodes)))
        qi0 = np.clip(np.floor(qi).astype(int), 0, len(q_nodes) - 2)
        pi0 = np.clip(np.floor(pi).astype(int), 0, len(p_nodes) - 2)
        fq = qi - qi0
        fp = pi - pi0
        v = (values[qi0, pi0] * (1 - fq) * (1 - fp)
             + values[qi0 + 1, pi0] * fq * (1 - fp)
             + values[qi0, pi0 + 1] * (1 - fq) * fp
             + values[qi0 + 1, pi0 + 1] * fq * fp)
        outside = (p < p_nodes[0]) | (p > p_nodes[-1])
        return np.where(outside, 0.0, v)

    return ClassicalDensity(domain, half_length, mass, base,
                            (float(p_nodes[0]), float(p_nodes[-1])))


def density_mass(sigma: ClassicalDensity, nq: int = 256, npv: int = 256
                 ) -> float:
    """Total phase-space mass by midpoint quadrature."""
    l = sigma.half_length
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    p_lo, p_hi = sigma.p_range
    p = p_lo + (p_hi - p_lo) / npv * (np.arange(npv) + 0.5)
    vals = sigma.evaluate(q[:, None], p[None, :])
    return float(np.sum(vals)) * (2.0 * l / nq) * ((p_hi - p_lo) / npv)


def kozlov_limit(sigma: ClassicalDensity, nq: int = 512) -> ClassicalDensity:
    """Position-averaged limit density of long-time classical transport.

    Circle: (1/2l) integral of sigma over q.  Box: additionally averaged
    over the momentum sign, since bounces mix the two signs.
    """
    l = sigma.half_length
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    dq = 2.0 * l / nq

    def marginal(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1)
        vals = sigma.evaluate(q[:, None], flat[None, :])
        out = np.sum(vals, axis=0) * dq / (2.0 * l)
        if sigma.domain == "box":
            vals_m = sigma.evaluate(q[:, None], -flat[None, :])
            out = 0.5 * (out + np.sum(vals_m, axis=0) * dq / (2.0 * l))
        return out.reshape(p.shape)

    def base(qv, pv):
        qv = np.asarray(qv, dtype=float)
        return np.broadcast_to(marginal(pv), np.broadcast(qv, pv).shape).copy()

    lo, hi = sigma.p_range
    if sigma.domain == "box":
        sym = max(hi, -lo)
        lo, hi = -sym, sym
    return ClassicalDensity(sigma.domain, l, sigma.mass, base, (lo, hi))


def rho_from_classical(sigma: ClassicalDensity, params: PhysicalParams,
                       nq: int = 16, npv: int = 16) -> DensityOperatorMixture:
    """Quantize a classical density as a coherent-state mixture.

    Atoms sit at midpoint-quadrature nodes of the (q, p) grid with
    weights sigma(q_i, p_j) dq dp, renormalized to sum to one.
    """
    l = params.half_length
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    p_lo, p_hi = sigma.p_range
    p = p_lo + (p_hi - p_lo) / npv * (np.arange(npv) + 0.5)
    vals = sigma.evaluate(q[:, None], p[None, :])
    if np.any(vals < 0.0):
        raise ContractViolation("classical density is negative on the grid")
    total = float(np.sum(vals))
    if total <= 0.0:
        raise ContractViolation("classical density vanishes on the grid")
    atoms = []
    for i in range(nq):
        for j in range(npv):
            w = vals[i, j] / total
            if w > 0.0:
                atoms.append((w, PhasePoint(float(q[i]), float(p[j]))))
    return DensityOperatorMixture(params, sigma.domain, tuple(atoms))


# ---------------------------------------------------------------------------
# Test-function family and weak pairings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFamily:
    """Separating family of test functions h_j(q) * g_b(p).

    Position factors are the real harmonics 1, cos(pi j q / l),
    sin(pi j q / l) for j = 1..J; momentum factors are Gaussian bumps
    at ``p_centers`` with width ``p_width``.  Box families use the
    sign-symmetrized bumps (g(p) + g(-p))/2, respecting the wall
    identification of the momentum sign.
    """

    # Not a test-case class, despite the name.
    __test__ = False

    domain: str
    half_length: float
    p_centers: tuple[float, ...]
    p_width: float
    J: int = 8

    def __post_init__(self) -> None:
        if self.domain not in ("circle", "box"):
            raise ContractViolation(f"unknown domain {self.domain!r}")
        if not self.p_width > 0.0:
            raise ContractViolation("p_width must be positive")

    @property
    def size(self) -> int:
        return (2 * self.J + 1) * len(self.p_centers)

    def _split(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.size:
            raise ContractViolation(
                f"test index {index} outside the family of size {self.size}")
        return index // len(self.p_centers), index % len(self.p_centers)

    def harmonic_order(self, index: int) -> int:
        """Spatial frequency j of the harmonic factor (0 means constant)."""
        hidx, _ = self._split(index)
        return (hidx + 1) // 2

    def position_factor(self, index: int, q) -> np.ndarray:
        hidx, _ = self._split(index)
        q = np.asarray(q, dtype=float)
        if hidx == 0:
            return np.ones_like(q)
        j = (hidx + 1) // 2
        arg = math.pi * j * q / self.half_length
        return np.cos(arg) if hidx % 2 == 1 else np.sin(arg)

    def momentum_factor(self, index: int, p) -> np.ndarray:
        _, bidx = self._split(index)
        p = np.asarray(p, dtype=float)
        pc = self.p_centers[bidx]
        w = self.p_width
        g = np.exp(-(p - pc) ** 2 / (2.0 * w * w))
        if self.domain == "box":
            g = 0.5 * (g + np.exp(-(p + pc) ** 2 / (2.0 * w * w)))
        return g

    def value(self, index: int, q, p) -> np.ndarray:
        return self.position_factor(index, q) * self.momentum_factor(index, p)


def pair_sampled(family: TestFamily, index: int, q: np.ndarray,
                 p: np.ndarray, values: np.ndarray, dq: float, dp: float
                 ) -> float:
    """Pair a density sampled on a product grid with one test function."""
    tau = family.position_factor(index, q)[:, None] \
        * family.momentum_factor(index, p)[None, :]
    return float(np.sum(values * tau)) * dq * dp


def pair_classical(family: TestFamily, index: int, sigma: ClassicalDensity,
                   nq: int = 256, npv: int = 256) -> float:
    """Pair a classical density with one test function by quadrature."""
    l = sigma.half_length
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    lo, hi = sigma.p_range
    p = lo + (hi - lo) / npv * (np.arange(npv) + 0.5)
    vals = sigma.evaluate(q[:, None], p[None, :])
    return pair_sampled(family, index, q, p, vals, 2.0 * l / nq,
                        (hi - lo) / npv)


def pair_profile(family: TestFamily, index: int, profile: LimitProfile
                 ) -> float:
    """Closed-form pairing of a limit profile with one test function.

    Circle, finite D: the harmonic picks up the Gaussian damping factor
    exp(-(pi j D / l)^2 / 2) at each center.  D = inf keeps only the
    constant harmonic.  Box profiles are paired on the unfolded doubled
    circle, where the periodized Gaussian profile lives; the reflected
    family contributes through the sign-symmetrized momentum factor.
    """
    l = profile.half_length
    D = profile.spread_d
    if profile.domain == "circle":
        g = float(family.momentum_factor(index, profile.momentum))
        j = family.harmonic_order(index)
        if math.isinf(D):
            return g if j == 0 else 0.0
        damp = math.exp(-0.5 * (math.pi * j * D / l) ** 2)
        h = family.position_factor(index, np.array(profile.centers))
        return float(profile.weight * damp * np.sum(h)) * g
    # Box: the sign-symmetrized momentum factor weights both the direct
    # family (momentum +p, centers C_k) and the reflected family
    # (momentum -p, centers 2l - C_k), all taken modulo 4l.
    g = float(family.momentum_factor(index, profile.momentum))
    j = family.harmonic_order(index)
    if math.isinf(D):
        # Uniform over the box for each momentum sign, half weight each.
        return g if j == 0 else 0.0
    if D == 0.0:
        centers = list(profile.centers) \
            + [wrap_position(2.0 * l - c, 2.0 * l) for c in profile.centers]
        total = 0.0
        for c in centers:
            if -l <= c <= l:
                total += profile.weight \
                    * float(family.position_factor(index, np.array([c]))[0])
        return total * g
    n = 4096
    qbox = -l + 2.0 * l / n * (np.arange(n) + 0.5)
    dens = np.zeros(n)
    centers = list(profile.centers) \
        + [wrap_position(2.0 * l - c, 2.0 * l) for c in profile.centers]
    m_lo, m_hi = image_window(0.5 / (D * D), min(centers) - l,
                              max(centers) + l, 4.0 * l)
    for c in centers:
        for m in range(m_lo, m_hi + 1):
            dens += profile.weight * np.exp(
                -(qbox - c - 4.0 * m * l) ** 2 / (2.0 * D * D)) \
                / math.sqrt(2.0 * math.pi * D * D)
    h = family.position_factor(index, qbox)
    return float(np.sum(dens * h)) * (2.0 * l / n) * g


# ---------------------------------------------------------------------------
# Transition-density grids (quantum side of Theorems 1-2)
# ---------------------------------------------------------------------------

def transition_grid(params: PhysicalParams, fixed: PhasePoint, t: float,
                    domain: str, nq: int, p_nodes: np.ndarray) -> np.ndarray:
    """(1/2 pi hbar)|((q,p) fixed, (q', p') at t)|^2 over a (q', p') grid.

    Returns an array of shape (nq, len(p_nodes)); the q' grid is the
    midpoint grid over the fundamental domain.
    """
    l = params.half_length
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    out = np.zeros((nq, len(p_nodes)))
    for j, pp in enumerate(p_nodes):
        row = _overlaps(params, domain, fixed.q, fixed.p, q, pp, t)
        out[:, j] = np.abs(row) ** 2
    return out / (2.0 * math.pi * params.hbar)


# ---------------------------------------------------------------------------
# Semiclassical schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleLevel:
    params: PhysicalParams
    t: float


@dataclass(frozen=True)
class SemiclassicalSchedule:
    """Joint limit hbar -> 0, alpha = C sqrt(hbar), t tied to (c, D).

    c is the revival fraction (exact Fraction, or float 0.0 for the
    plain collapse regimes), D the spread parameter (math.inf encodes
    the flattening regime).
    """

    c: Fraction | float
    D: float
    domain: str
    levels: tuple[ScheduleLevel, ...]


def make_schedule(c: Fraction | float, D: float, base: PhysicalParams,
                  n_levels: int, domain: str = "circle",
                  p_ref: float = 0.0) -> SemiclassicalSchedule:
    """Build a schedule: hbar_n = hbar_0 2^-n, alpha_n = C sqrt(hbar_n).

    Finite D: t_n = c T_rev(hbar_n) + 2 m D alpha_n / hbar_n, so
    (hbar/alpha)(t - c T_rev) = 2mD exactly at each level.
    D = inf: t_n = c T_rev + (alpha_n / hbar_n)^(3/2), which drives
    hbar t / alpha to infinity while hbar (t - c T_rev) -> 0.
    """
    if n_levels < 3:
        raise ContractViolation("schedules need at least 3 levels")
    if D < 0.0:
        raise DomainError("D must be in [0, inf]")
    C = base.alpha / math.sqrt(base.hbar)
    levels = []
    prev_ratio = None
    for n in range(n_levels):
        hb = base.hbar * 2.0**-n
        al = C * math.sqrt(hb)
        par = PhysicalParams(hb, base.mass, al, base.half_length)
        t_rev = time_scales(par, p_ref if p_ref else 1.0, domain).t_rev
        if math.isinf(D):
            t = float(c) * t_rev + (al / hb) ** 1.5
        else:
            t = float(c) * t_rev + 2.0 * base.mass * D * al / hb
        # Arithmetic schedule conditions, asserted per level.
        ratio = hb / al
        if prev_ratio is not None and not ratio < prev_ratio:
            raise ContractViolation("hbar/alpha fails to decrease")
        if not math.isinf(D):
            drift = (hb / al) * (t - float(c) * t_rev)
            if abs(drift - 2.0 * base.mass * D) > 1e-9 * (1.0 + abs(drift)):
                raise ContractViolation("schedule drift condition violated")
        prev_ratio = ratio
        levels.append(ScheduleLevel(par, t))
    return SemiclassicalSchedule(c, D, domain, tuple(levels))


def residual_trend_ok(residuals: list[float]) -> bool:
    """Monotone-trend acceptance: strictly decreasing over the last 3
    levels and final residual below half the initial."""
    if len(residuals) < 4:
        return False
    tail = residuals[-3:]
    dec = all(b < a for a, b in zip(tail, tail[1:]))
    return dec and residuals[-1] < 0.5 * residuals[0]
