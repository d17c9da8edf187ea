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

from .box import _fold_box, _unfold, box_coefficient_table, odd_overlap
from .circle import MODE_CAP, LimitProfile, _evolution_phases, _grid_sum, \
    _kernels, _mode_window, comb_coefficients, profile_position_density, \
    time_scales
from .params import CapacityError, ContractViolation, DomainError, \
    PhasePoint, PhysicalParams
from .theta import image_window, overlap_decay, periodized_overlap, theta


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
            qp, pp = _unfold(q, p, l)
            q0, sign = _fold_box(qp - pp * t / self.mass, l)
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

    The q-factor is periodized with period 2l on both domains (the box
    density is simply restricted to [-l, l], and the p reflection is
    left to transport), one ``theta`` call per component:
    sum_n exp(-(q - q0 - n P)^2 / 2 sq^2)
    = (sqrt(2 pi) sq / P) theta((q - q0) / P, 2 pi sq^2 / P^2).
    """
    l = half_length
    total = sum(w for w, *_ in components)
    period = 2.0 * l

    def base(q, p):
        out = np.zeros(np.broadcast(q, p).shape)
        for w, q0, p0, sq, sp in components:
            qfac = theta((q - q0) / period,
                         2.0 * math.pi * (sq / period) ** 2).real / period
            out += (w / total) * qfac \
                * np.exp(-(p - p0) ** 2 / (2.0 * sp * sp)) \
                / (math.sqrt(2.0 * math.pi) * sp)
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


def pair_sampled(family: TestFamily, index, q: np.ndarray, p: np.ndarray,
                 values: np.ndarray, dq: float, dp: float):
    """Pair a density sampled on a product grid with test functions.

    ``index`` is one family index, which gives a float, or a sequence of
    them, which gives an array of the pairings in that order.  All of
    them come from one contraction: with H the position factors
    (len(q) x indices) and G the momentum factors (len(p) x indices),
    the pairings are sum(H * (values @ G), axis 0) dq dp.
    """
    idx = np.atleast_1d(index)
    h = np.stack([family.position_factor(i, q) for i in idx], axis=1)
    g = np.stack([family.momentum_factor(i, p) for i in idx], axis=1)
    out = np.sum(h * (values @ g), axis=0) * dq * dp
    return float(out[0]) if np.ndim(index) == 0 else out


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

    D = inf keeps only the constant harmonic (uniform over the domain;
    in the box for each momentum sign, half weight each).  Circle,
    finite D: the harmonic picks up the Gaussian damping factor
    exp(-(pi j D / l)^2 / 2) at each center.  Box profiles live on the
    unfolded doubled circle; both of its sheets enter through the
    sign-symmetrized momentum factor.  At D = 0 each center folds onto
    one box point; at finite D the two-sheet ``profile_position_density``
    is paired by midpoint quadrature on 4096 points.
    """
    l = profile.half_length
    D = profile.spread_d
    g = float(family.momentum_factor(index, profile.momentum))
    j = family.harmonic_order(index)
    if math.isinf(D):
        return g if j == 0 else 0.0
    if profile.domain == "circle":
        damp = math.exp(-0.5 * (math.pi * j * D / l) ** 2)
        h = family.position_factor(index, np.array(profile.centers))
        return float(profile.weight * damp * np.sum(h)) * g
    if D == 0.0:
        q = _fold_box(np.array(profile.centers) - l, l)[0]
        h = family.position_factor(index, q)
        return float(profile.weight * np.sum(h)) * g
    n = 4096
    qbox = -l + 2.0 * l / n * (np.arange(n) + 0.5)
    dens = profile_position_density(profile, qbox)
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

    Each p' column is the one theta kernel in whichever of its two forms
    costs less:

    * mode sum: the label (q', p') has coefficients g_k(p') e^{-i pi k q'/l}
      (``comb_coefficients`` at q' = 0), so the column is
      |sum_k a_k e^{-i pi k q'/l}|^2 with a_k the fixed label's conjugate
      coefficients times the evolution phases times g_k(p'), folded onto
      the q' grid and summed by one inverse FFT (``circle._grid_sum``;
      the box sines are the modes +-k of the doubled circle).  The modes
      span the windows of fixed.p and of the extreme p' nodes (and their
      negatives in the box).  A column costs one complex exponential per
      mode and an FFT of N = nq (circle) or 2 nq (box) bins;
    * image sum: ``periodized_overlap`` at every grid point, one complex
      exponential per grid point and image.

    Costs are counted in exponentials.  On a 2-vCPU Xeon a mode took
    about 50 ns, an image term 70-120 ns and one of the N log2 N FFT
    butterflies 4 ns, a sixteenth of an exponential.  The image sum
    runs when it costs no more, which takes a wide window and few
    images (alpha = 1e-5 on l = pi: 1.26e6 modes), or when the mode
    window would exceed ``MODE_CAP``, so nothing raises
    ``CapacityError``.  Mode-sum columns are built in blocks of at most
    as many (modes or bins) x columns entries as one image sum over the
    grid holds, nq x images, and never more than ``theta.BLOCK_CAP``, so
    the mode sum needs about as much memory as the image sum it
    replaces.

    The forms agree to rounding.  Against ``oracles.quad_inner`` at
    gamma = 800 (hbar = 0.02, alpha = 0.05, t = 200) the mode sum is
    within 4e-15 on the circle and in the box, the image sum, rounded
    over its many images, within 4e-13 and 5e-13.  Both round phases
    that grow with t, so their agreement loosens at long times.
    """
    l = params.half_length
    p_nodes = np.asarray(p_nodes, dtype=float)
    circle = domain == "circle"
    n_bins = nq if circle else 2 * nq
    k = _transition_window(params, fixed.p, p_nodes, domain)
    lo, hi = image_window(overlap_decay(params, t), -l, l,
                          2.0 * l if circle else 4.0 * l)
    # Costs per column, in complex exponentials (see the docstring); the
    # box's odd overlap is two image sums.
    images = (hi - lo + 1) * (1 if circle else 2)
    if k is None or nq * images <= len(k) + n_bins * math.log2(n_bins) / 16:
        q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
        out = np.zeros((nq, len(p_nodes)))
        for j, pp in enumerate(p_nodes):
            row = _overlaps(params, domain, fixed.q, fixed.p, q, pp, t)
            out[:, j] = np.abs(row) ** 2
    else:
        out = _transition_mode_sums(params, fixed, t, domain, nq, p_nodes,
                                     k, nq * (hi - lo + 1))
    out /= 2.0 * math.pi * params.hbar
    return out


def _transition_window(params: PhysicalParams, p: float,
                       p_nodes: np.ndarray, domain: str) -> np.ndarray | None:
    """Modes of the transition mode sum, or None when there are no p'
    nodes or the window would exceed ``MODE_CAP``."""
    if len(p_nodes) == 0:
        return None
    # Box modes live on the doubled circle, of half-length 2l.
    half = params.half_length * (1.0 if domain == "circle" else 2.0)
    try:
        windows = [_mode_window(params, pv, half)
                   for pv in (p, float(p_nodes.min()), float(p_nodes.max()))]
    except CapacityError:
        return None
    k_lo = min(w[0] for w in windows)
    k_hi = max(w[1] for w in windows)
    if domain == "box":
        # Sines pair the modes +-k: k >= 1 reaching both signs' windows.
        k_lo, k_hi = 1, max(k_hi, -k_lo)
    if k_hi - k_lo + 1 > MODE_CAP:
        return None
    return np.arange(k_lo, k_hi + 1)


def _transition_mode_sums(params: PhysicalParams, fixed: PhasePoint,
                           t: float, domain: str, nq: int,
                           p_nodes: np.ndarray, k: np.ndarray,
                           entries: int) -> np.ndarray:
    """|overlap|^2 columns of ``transition_grid`` as mode sums over k,
    in blocks of at most ``entries`` (and ``theta.BLOCK_CAP``) modes or
    bins x columns entries."""
    l = params.half_length
    out = np.empty((nq, len(p_nodes)))
    if domain == "circle":
        fixed_c = comb_coefficients(params, k, fixed.q, fixed.p, l)
        half, n_bins = l, nq
    else:
        # Fixed sine coefficients b_k, zero past their own window.
        fixed_c = np.zeros(len(k), dtype=complex)
        b = box_coefficient_table(params, fixed.q, fixed.p, l)[1]
        fixed_c[:len(b)] = b
        half, n_bins = 2.0 * l, 2 * nq
    a = np.conj(fixed_c) * _evolution_phases(params, k, t, half)
    cols = max(1, min(entries, _kernels.BLOCK_CAP) // max(len(k), n_bins))
    for j in range(0, len(p_nodes), cols):
        g = comb_coefficients(params, k[:, None], 0.0, p_nodes[j:j + cols],
                              half)
        if domain == "circle":
            # Midpoint q' grid: offset m = 1 half cell; e^{-i pi k q'/l}
            # is mode -k.
            sums = _grid_sum(-k, a[:, None] * g, 1, nq)
        else:
            # b_k(q', p') = i (g_k e^{-iu} - g_{-k} e^{iu}),
            # u = pi k (q' - l) / 2l; the unit factors drop out of |.|^2.
            g_minus = comb_coefficients(params, -k[:, None], 0.0,
                                        p_nodes[j:j + cols], half)
            sums = _grid_sum(k, a[:, None] * g_minus, 1, nq,
                             minus=a[:, None] * g)
        out[:, j:j + cols] = np.abs(sums) ** 2
    return out


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
