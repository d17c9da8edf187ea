"""Coherent states on a circle: construction, evolution, overlaps, revivals.

The circle has circumference 2l with fundamental domain [-l, l).  A
coherent state labelled by a phase point (q, p) is the 2l-periodization
of the free Gaussian packet; equivalently a Gaussian-weighted comb of
Fourier modes e_k(x) = exp(i pi k x / l) / sqrt(2l).
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .params import (CapacityError, ContractViolation, DomainError,
                     MethodUnavailable, PhasePoint, PhysicalParams,
                     wrap_position)
from .theta import (dispersion, gaussian_packet, image_window,
                    periodized_overlap, theta)

MODE_CAP = 10**7

# The module, not the theta function the package re-exports; read at
# call time so BLOCK_CAP stays one setting.
_kernels = importlib.import_module(".theta", __package__)


@dataclass(frozen=True)
class WaveState:
    """Spectral representation of a state on a compact domain.

    Attributes
    ----------
    domain : {'circle', 'box'}
    params : PhysicalParams
    k_min : int
        Mode index of ``coefficients[0]`` (1 for box states).
    coefficients : ndarray of complex
        Coefficients over e_k = exp(i pi k x / l)/sqrt(2l) (circle) or
        f_k = sin(pi k (x - l) / 2l)/sqrt(l) (box).  Modes outside the
        stored window are exactly zero.
    time : float
        Evolution time already applied to the coefficients.
    source : PhasePoint or None
        The generating packet label, kept so image-sum evaluation stays
        available; None for states not built from a single packet.
    """

    domain: str
    params: PhysicalParams
    k_min: int
    coefficients: np.ndarray
    time: float = 0.0
    source: PhasePoint | None = None

    def __post_init__(self) -> None:
        if self.domain not in ("circle", "box"):
            raise ContractViolation(f"unknown domain {self.domain!r}")
        c = np.asarray(self.coefficients, dtype=complex)
        if not np.all(np.isfinite(c.view(float))):
            raise ContractViolation("non-finite spectral coefficients")
        object.__setattr__(self, "coefficients", c)

    @property
    def k_values(self) -> np.ndarray:
        return self.k_min + np.arange(len(self.coefficients))

    def norm_sq(self) -> float:
        """Squared norm of the represented function, Sum |c_k|^2."""
        return float(np.sum(np.abs(self.coefficients) ** 2))


@dataclass(frozen=True)
class TimeScales:
    """Characteristic times: traversal, collapse, and full revival."""

    t_cl: float
    t_coll: float
    t_rev: float


@dataclass(frozen=True)
class RevivalStructure:
    """Reduced revival fraction c = M/N with the derived peak data.

    At t = (M/N) * t_rev the density splits into n_prime copies of the
    initial packet, offset by ``a``.
    """

    M: int
    N: int
    n_prime: int
    a: float
    irrational_flag: bool = False


@dataclass(frozen=True)
class LimitProfile:
    """Predicted limit density: packet centers + spread + momentum.

    ``spread_d`` is the width D of the Gaussian spreading profile
    (0 = delta peaks, math.inf = uniform).  ``weight`` is the mass
    carried by each center.  Box centers live on the doubled circle
    [-2l, 2l), where a box point x sits at x on the sheet of momentum
    +p and at 2l - x on the sheet of -p.
    """

    centers: tuple[float, ...]
    spread_d: float
    momentum: float
    weight: float
    domain: str
    half_length: float


def _mode_window(params: PhysicalParams, p: float, half_length: float):
    """Modes k whose comb weight exp(-alpha^2 (pi k / l - p / hbar)^2)
    passes ``image_window``."""
    k_min, k_max = image_window(params.alpha**2, -p / params.hbar,
                                -p / params.hbar, math.pi / half_length)
    if k_max - k_min + 1 > MODE_CAP:
        raise CapacityError(
            f"spectral window needs {k_max - k_min + 1} modes "
            "(cap 1e7); increase hbar or alpha")
    return k_min, k_max


def comb_coefficients(params: PhysicalParams, k, q, p, half_length):
    """Gaussian-comb Fourier coefficient of the periodized packet at (q, p):

    c_k = (pi a^2 / 2 l^4)^(1/4) sqrt(2 l)
          exp{-a^2 (pi k / l - p/hbar)^2 - i pi k q / l},

    broadcast over ``k``, ``q``, ``p`` and the half-length l.

    The coefficient is the product of two factors, each built on its own
    broadcast shape: the real envelope
    (pi a^2 / 2 l^4)^(1/4) sqrt(2 l) exp{-a^2 (pi k / l - p/hbar)^2} on
    that of (k, p, l), and the phase exp(-i pi k q / l) on that of
    (k, q, l), its angle rounded in real arithmetic.  A comb at q = 0
    costs K phases for any number of momenta, and a table over (q, p)
    nodes costs one complex exponential per entry.
    """
    l = half_length
    a2 = params.alpha**2
    pref = (math.pi * a2 / (2.0 * l**4)) ** 0.25 * np.sqrt(2.0 * l)
    envelope = pref * np.exp(-a2 * (math.pi * k / l - p / params.hbar) ** 2)
    return envelope * np.exp(-1j * (math.pi * k * q / l))


def circle_coefficients(params: PhysicalParams, phase: PhasePoint,
                        half_length: float | None = None):
    """Fourier coefficients of the periodized packet on its mode window.

    Returns (k_min, coefficient array) with the ``comb_coefficients``
    c_k for k_min <= k <= k_max.
    """
    l = params.half_length if half_length is None else half_length
    k_min, k_max = _mode_window(params, phase.p, l)
    k = np.arange(k_min, k_max + 1)
    return k_min, comb_coefficients(params, k, phase.q, phase.p, l)


def make_circle_state(params: PhysicalParams, phase: PhasePoint) -> WaveState:
    """Coherent state on the circle labelled by (q, p), at time 0.

    Requires alpha < l/4 so the packet fits the domain cleanly; the
    position label is wrapped into [-l, l).
    """
    if not params.alpha < params.half_length / 4.0:
        raise ContractViolation(
            f"alpha={params.alpha} must be < half_length/4="
            f"{params.half_length / 4.0}")
    phase = PhasePoint(wrap_position(phase.q, params.half_length), phase.p)
    k_min, c = circle_coefficients(params, phase)
    return WaveState("circle", params, k_min, c, 0.0, phase)


def circle_norm_sq(params: PhysicalParams, phase: PhasePoint) -> float:
    """Squared norm of the circle coherent state.

    The packet's overlap with itself summed over its images,
    1 + 2 sum_{k>=1} exp(-l^2 k^2 / 2 alpha^2) cos(2 p l k / hbar), taken
    by ``periodized_overlap`` with period 2l.
    """
    return float(periodized_overlap(params, phase.q, phase.p, phase.q,
                                    phase.p, 0.0,
                                    2.0 * params.half_length).real)


def _evolution_phases(params: PhysicalParams, k, t: float, half_length):
    """Free-motion phases exp(-i hbar t (pi k / l)^2 / 2m) of the modes
    exp(i pi k x / l) of a circle of half-length l."""
    freq = (math.pi * k / half_length) ** 2
    return np.exp(-1j * params.hbar * t * freq / (2.0 * params.mass))


def evolve(state: WaveState, t: float) -> WaveState:
    """Advance a state by time t (free motion; exact spectral phases)."""
    par = state.params
    # Box sines are modes of the doubled circle, of half-length 2l.
    l = par.half_length if state.domain == "circle" \
        else 2.0 * par.half_length
    phases = _evolution_phases(par, state.k_values, t, l)
    return replace(state, coefficients=state.coefficients * phases,
                   time=state.time + t)


def _eval_circle_images(params: PhysicalParams, phase: PhasePoint,
                        x: np.ndarray, t: float, half_length: float):
    """Sum of freely evolving packets over shifts of 2l (vectorized)."""
    l = half_length
    center = phase.q + phase.p * t / params.mass
    # |eta_{qp,t}(x)| decays as exp(-(x - centre)^2 / (4 dispersion^2)).
    n_lo, n_hi = image_window(0.25 / dispersion(params, t) ** 2,
                              center - float(np.max(x)),
                              center - float(np.min(x)), 2.0 * l)
    out = np.zeros_like(x, dtype=complex)
    for n in range(n_lo, n_hi + 1):
        shifted = PhasePoint(phase.q + 2.0 * n * l, phase.p)
        out += gaussian_packet(params, shifted, x, t)
    return out


def _uniform_offset(x: np.ndarray, half_length: float):
    """Offset of x as a uniform grid of spacing h = 2l/len(x), or None.

    x is uniform when x_j = -l + (m/2 + j) h for all j, to within a few
    ulps of its magnitude; m is the offset of x_0 from -l in half cells.
    m is returned as an int when x_0 sits on a half cell to that same
    tolerance (midpoint grids and grids starting at a wall), otherwise
    as a float.
    """
    n = len(x)
    if n == 0 or not np.all(np.isfinite(x)):
        return None
    l = half_length
    h = 2.0 * l / n
    tol = 8.0 * np.finfo(float).eps * max(l, float(np.max(np.abs(x))))
    shift = float(x[0]) + l
    m = shift / (0.5 * h)
    if abs(round(m) * (0.5 * h) - shift) <= tol:
        m = round(m)
    grid = -l + (0.5 * m + np.arange(n)) * h
    return m if np.all(np.abs(x - grid) <= tol) else None


def _fold(k: np.ndarray, a: np.ndarray, m, n_bins: int) -> np.ndarray:
    """Fold sum_k a_k exp(i pi k (m - N + 2j) / N) onto N = n_bins bins.

    Returns B with sum_b B_b exp(2 pi i b j / N) equal to that sum at
    every integer j: mode k lands in bin k mod N with the phase
    exp(i pi k (m - N) / N).  For an int m the phase angle is reduced
    exactly, as the integer k (m - N) mod 2N.  ``a`` holds the modes on
    its first axis; trailing axes are folded column by column, onto the
    same trailing axes of B.
    """
    if isinstance(m, int):
        period = 2 * n_bins
        r = (k % period) * ((m - n_bins) % period) % period
        phase = np.exp((1j * math.pi / n_bins) * r)
    else:
        phase = np.exp((1j * math.pi * (m - n_bins) / n_bins) * k)
    terms = phase[:, None] * a.reshape(len(k), -1)
    cols = terms.shape[1]
    bins = ((k % n_bins)[:, None] * cols + np.arange(cols)).ravel()
    out = (np.bincount(bins, terms.real.ravel(), n_bins * cols)
           + 1j * np.bincount(bins, terms.imag.ravel(), n_bins * cols))
    return out.reshape((n_bins,) + a.shape[1:])


def _grid_sum(k: np.ndarray, a: np.ndarray, m, n: int,
              minus: np.ndarray | None = None) -> np.ndarray:
    """Mode sums on the grid x_j = -l + (m/2 + j) 2l/n, j < n, by one
    ``_fold`` per mode sign and one inverse FFT along the first axis.

    Without ``minus``: sum_k a_k exp(i pi k x_j / l), on n bins.
    With ``minus``: sum_k (a_k e^{i u} - minus_k e^{-i u}),
    u = pi k (x_j - l) / 2l, the modes +-k of the doubled circle, which
    the grid covers with 2n points; the first n are kept.  Trailing axes
    of the coefficients are summed column by column.
    """
    if minus is None:
        bins = _fold(k, a, m, n)
    else:
        bins = _fold(k, a, m, 2 * n) - _fold(-k, minus, m, 2 * n)
    return np.fft.ifft(bins, axis=0, norm="forward")[:n]


def _eval_basis(state: WaveState, x: np.ndarray) -> np.ndarray:
    """Synthesis against the explicit basis, built in row blocks of at
    most ``theta.BLOCK_CAP`` (points x modes) entries."""
    k = state.k_values
    l = state.params.half_length
    rows = max(1, _kernels.BLOCK_CAP // len(k))
    out = np.empty(len(x), dtype=complex)
    for i in range(0, len(x), rows):
        xb = x[i:i + rows]
        if state.domain == "circle":
            basis = np.exp(1j * math.pi * np.outer(xb, k) / l) \
                / math.sqrt(2.0 * l)
        else:
            basis = np.sin(math.pi * np.outer(xb - l, k) / (2.0 * l)) \
                / math.sqrt(l)
        out[i:i + rows] = basis @ state.coefficients
    return out


def _eval_grid(state: WaveState, m, n: int) -> np.ndarray:
    """Synthesis on the uniform grid x_j = -l + (m/2 + j) 2l/n by one
    inverse FFT over the folded modes."""
    k, c = state.k_values, state.coefficients
    l = state.params.half_length
    if state.domain == "circle":
        return _grid_sum(k, c, m, n) / math.sqrt(2.0 * l)
    # sin(u) = (e^{iu} - e^{-iu}) / 2i.
    return _grid_sum(k, c, m, n, minus=c) / (2j * math.sqrt(l))


def eval_state(state: WaveState, x, method: str = "spectral"):
    """Evaluate the wave function at position(s) x.

    method 'spectral' synthesizes the stored coefficients; 'image_sum'
    sums shifted free packets at the stored time (available only for
    packet-generated states).  The two agree within combined truncation
    tolerance.  Both return an array of the shape of x (a complex scalar
    when x is a scalar or has shape (1,)).

    The spectral synthesis takes one of two paths, chosen by the points
    alone:

    * x uniform with spacing 2l/len(x) (midpoint grids, and grids from
      ``linspace(-l, l, n, endpoint=False)``): the modes are folded onto
      the grid, exactly, modulo n (circle) or 2n (box, whose sines are
      pairs of modes +-k on the doubled circle), and summed by one
      inverse FFT, in O(K + n log n) time and O(K + n) memory for K
      modes.  When x_0 sits on a half cell, each mode's phase is reduced
      exactly in integers, so the error stays at a few ulps of max|psi|
      (2.4e-16 of max|psi| at K = 6329, against a long-double sum at the
      exact grid points);
    * any other x: the explicit n x K basis, built in row blocks of at
      most ``theta.BLOCK_CAP`` entries.  The phase pi k x / l is rounded
      in floating point, an error that grows with |k| (about 1e-13 of
      max|psi| at K = 6329).  A uniform grid whose x_0 is off the half
      cells takes the FFT path with this same float phase.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    par = state.params
    l = par.half_length
    if method == "spectral":
        flat = x.ravel()
        m = _uniform_offset(flat, l)
        out = _eval_basis(state, flat) if m is None \
            else _eval_grid(state, m, len(flat))
        out = out.reshape(x.shape)
    elif method == "image_sum":
        if state.source is None:
            raise MethodUnavailable(
                "image_sum requires a packet-generated state")
        qp = state.source
        if state.domain == "circle":
            out = _eval_circle_images(par, qp, x, state.time, l)
        else:
            # Difference of two periodized packets on the doubled circle.
            shifted = PhasePoint(qp.q - l, qp.p)
            mirror = PhasePoint(l - qp.q, -qp.p)
            out = (_eval_circle_images(par, shifted, x - l, state.time, 2.0 * l)
                   - _eval_circle_images(par, mirror, x - l, state.time,
                                         2.0 * l))
    else:
        raise ContractViolation(f"unknown method {method!r}")
    return out[0] if out.shape == (1,) else out


def circle_overlap(params: PhysicalParams, a: PhasePoint, b: PhasePoint,
                   t: float, half_length: float | None = None) -> complex:
    """Scalar product (state_a, evolved state_b) on the circle.

    Computed as the image sum of free-line overlaps over shifts of the
    second label by multiples of 2l (``periodized_overlap``).
    """
    l = params.half_length if half_length is None else half_length
    return complex(periodized_overlap(params, a.q, a.p, b.q, b.p, t, 2.0 * l))


def time_scales(params: PhysicalParams, p: float, domain: str) -> TimeScales:
    """Traversal, collapse, and revival times for momentum p."""
    m, l, hbar = params.mass, params.half_length, params.hbar
    t_coll = 2.0 * m * l * params.alpha / (math.sqrt(3.0) * hbar)
    if domain == "circle":
        t_cl = 2.0 * l * m / abs(p) if p != 0.0 else math.inf
        t_rev = 4.0 * m * l * l / (math.pi * hbar)
    elif domain == "box":
        t_cl = 4.0 * l * m / abs(p) if p != 0.0 else math.inf
        t_rev = 16.0 * m * l * l / (math.pi * hbar)
    else:
        raise ContractViolation(f"unknown domain {domain!r}")
    return TimeScales(t_cl, t_coll, t_rev)


def revival_structure(M: int, N: int, half_length: float) -> RevivalStructure:
    """Peak structure of the fractional revival at c = M/N (reduced)."""
    if N <= 0:
        raise ContractViolation("N must be a positive integer")
    if math.gcd(M, N) != 1:
        raise ContractViolation(f"fraction {M}/{N} is not reduced")
    n_prime = N if N % 2 == 1 else N // 2
    a = 2.0 * half_length / N if N % 4 == 2 else 0.0
    return RevivalStructure(M, N, n_prime, a)


def irrational_structure() -> RevivalStructure:
    """Limit structure for irrational c: one peak, no offset."""
    return RevivalStructure(0, 1, 1, 0.0, irrational_flag=True)


def limit_profile(structure: RevivalStructure, phase: PhasePoint, D: float,
                  t_offset: float, domain: str, params: PhysicalParams
                  ) -> LimitProfile:
    """Predicted limit density near t = c * t_rev + t_offset.

    Centers sit at q + (spacing)k + a - (p/m) t_offset, k < n_prime,
    with spacing 2l/N' on the circle and 4l/N' in the box (where the
    centers live on the doubled, unfolded circle, so each one lands in
    the box on one of its two sheets).  D = math.inf encodes the uniform
    profile.
    """
    if D < 0.0:
        raise DomainError("spread D must be in [0, inf]")
    l = params.half_length
    n_prime = structure.n_prime
    drift = -phase.p * t_offset / params.mass
    if domain == "circle":
        spacing, wrap_l, offset = 2.0 * l / n_prime, l, structure.a
    elif domain == "box":
        # Centers live on the doubled circle of half-length 2l, so both
        # the spacing and the N = 2 (mod 4) offset double.
        spacing, wrap_l, offset = 4.0 * l / n_prime, 2.0 * l, \
            2.0 * structure.a
    else:
        raise ContractViolation(f"unknown domain {domain!r}")
    centers = tuple(
        wrap_position(phase.q + spacing * k + offset + drift, wrap_l)
        for k in range(n_prime))
    return LimitProfile(centers, D, phase.p, 1.0 / n_prime, domain, l)


def profile_position_density(profile: LimitProfile, x) -> np.ndarray:
    """Position marginal of the limit profile at the points x.

    Each center carries a Gaussian of width D periodized with period
    P = 2l (circle) or 4l (the doubled circle of the box), all in one
    ``theta`` call:
    sum_n exp(-(x - c - n P)^2 / 2 D^2)
    = (sqrt(2 pi) D / P) theta((x - c) / P, 2 pi D^2 / P^2).
    A box point x lies on both sheets of the doubled circle, so the box
    density is f(x) + f(2l - x) with f the periodized family.  Either
    density integrates to 1 over [-l, l].  D = math.inf gives the
    uniform 1/2l; D = 0 (delta peaks) has no density, so use the
    centers directly.
    """
    x = np.asarray(x, dtype=float)
    l = profile.half_length
    D = profile.spread_d
    if D == 0.0:
        raise MethodUnavailable("delta-peak profile has no grid density")
    if math.isinf(D):
        return np.full_like(x, 1.0 / (2.0 * l))
    if profile.domain == "circle":
        period, sheets = 2.0 * l, x[..., None]
    else:
        period, sheets = 4.0 * l, np.stack([x, 2.0 * l - x], axis=-1)
    z = (sheets[..., None] - np.array(profile.centers)) / period
    dens = theta(z, 2.0 * math.pi * (D / period) ** 2).real
    return profile.weight / period * dens.sum(axis=(-2, -1))


def transition_density(params: PhysicalParams, a: PhasePoint, b: PhasePoint,
                       t: float, domain: str) -> float:
    """Phase-space transition density (1/2 pi hbar)|overlap|^2."""
    if domain == "circle":
        ov = circle_overlap(params, a, b, t)
    elif domain == "box":
        from .box import box_overlap
        ov = box_overlap(params, a, b, t)
    else:
        raise ContractViolation(f"unknown domain {domain!r}")
    return abs(ov) ** 2 / (2.0 * math.pi * params.hbar)
