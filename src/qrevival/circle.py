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

from .params import (ContractViolation, DomainError, MethodUnavailable,
                     PhasePoint, PhysicalParams, wrap_position)
from .theta import (_check_count, dispersion, gaussian_packet, image_window,
                    periodized_overlap, theta)

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
        stored window are exactly zero.  Box sines are ``_signed_modes``.
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
        _cover(self.domain, self.params.half_length)
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

    def __post_init__(self) -> None:
        _cover(self.domain, self.half_length)


def _cover(domain: str, half_length: float) -> float:
    """Half-length L of the domain's covering circle: l for the circle,
    2l for the box, whose states Theta makes odd in y = x - l there."""
    if domain == "circle":
        return half_length
    if domain == "box":
        return 2.0 * half_length
    raise ContractViolation(f"unknown domain {domain!r}")


def domain_overlap(params: PhysicalParams, domain: str, q, p, qb, pb,
                   t: float):
    """Overlaps ((q, p), (qb, pb) evolved for t) on the circle or in the
    box, labels broadcast: image sums (``periodized_overlap``) on the
    covering circle (``_cover``).  In the box, the odd projection:
    against the first label at (q - l, p), the second contributes its
    direct image at (qb - l, pb) minus its wall mirror at (l - qb, -pb).
    """
    l = params.half_length
    period = 2.0 * _cover(domain, l)
    if domain == "circle":
        return periodized_overlap(params, q, p, qb, pb, t, period)
    return (periodized_overlap(params, q - l, p, qb - l, pb, t, period)
            - periodized_overlap(params, q - l, p, l - qb, -pb, t, period))


def _mode_window(params: PhysicalParams, p: float, half_length: float):
    """Modes k whose comb weight exp(-alpha^2 (pi k / l - p / hbar)^2)
    passes ``image_window``."""
    centre = -float(p) / params.hbar
    k_min, k_max = image_window(params.alpha**2, centre, centre,
                                math.pi / half_length)
    _check_count(k_max - k_min + 1, "spectral window", "modes")
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


def circle_coefficients(params: PhysicalParams, phase: PhasePoint):
    """Fourier coefficients of the periodized packet on its mode window.

    Returns (k_min, coefficient array) with the ``comb_coefficients``
    c_k for k_min <= k <= k_max.
    """
    l = params.half_length
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
    by ``domain_overlap`` at t = 0.
    """
    return float(domain_overlap(params, "circle", phase.q, phase.p,
                                phase.q, phase.p, 0.0).real)


def _evolution_phases(params: PhysicalParams, k, t: float, half_length):
    """Free-motion phases exp(-i hbar t (pi k / l)^2 / 2m) of the modes
    exp(i pi k x / l) of a circle of half-length l."""
    freq = (math.pi * k / half_length) ** 2
    return np.exp(-1j * params.hbar * t * freq / (2.0 * params.mass))


def evolve(state: WaveState, t: float) -> WaveState:
    """Advance a state by time t (free motion; exact spectral phases)."""
    par = state.params
    phases = _evolution_phases(par, state.k_values, t,
                               _cover(state.domain, par.half_length))
    return replace(state, coefficients=state.coefficients * phases,
                   time=state.time + t)


def _eval_circle_images(params: PhysicalParams, phase: PhasePoint,
                        x: np.ndarray, t: float, half_length: float):
    """Sum of freely evolving packets over shifts of 2l (vectorized)."""
    l = half_length
    center = phase.q + phase.p * t / params.mass
    # |eta_{qp,t}(x)| decays as exp(-(x - centre)^2 / (4 dispersion^2)),
    # or not at all once dispersion^2 passes the largest double.
    d = dispersion(params, t)
    n_lo, n_hi = image_window(0.25 / d**2 if d < 1e154 else 0.0,
                              center - float(np.max(x)),
                              center - float(np.min(x)), 2.0 * l)
    _check_count(n_hi - n_lo + 1, "image sum", "images")
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
    terms = np.multiply(phase[:, None], a.reshape(len(k), -1), order="C")
    # Real and imaginary parts are adjacent float columns: one bincount.
    cols = 2 * terms.shape[1]
    bins = ((k % n_bins)[:, None] * cols + np.arange(cols)).ravel()
    out = np.bincount(bins, terms.view(float).ravel(), n_bins * cols)
    return out.view(complex).reshape((n_bins,) + a.shape[1:])


def _grid_sum(k: np.ndarray, a: np.ndarray, m, n: int) -> np.ndarray:
    """Mode sums sum_k a_k exp(i pi k y_j / L) on the grid
    y_j = -L + (m/2 + j) 2L/n of a circle of half-length L, by one
    ``_fold`` onto n bins and one inverse FFT along the first axis.
    Modes of either sign; trailing axes of the coefficients are summed
    column by column.  A domain grid covers n L / l of these points
    (``_cover``), and its callers keep the first n.
    """
    return np.fft.ifft(_fold(k, a, m, n), axis=0, norm="forward")


def _eval_basis(state: WaveState, x: np.ndarray) -> np.ndarray:
    """Synthesis against the explicit basis, built in row blocks of at
    most ``theta.BLOCK_CAP`` (points x modes) entries.  The box keeps
    its sines: as exponentials of +-k they took 4.6x as long (183 ms
    against 39.5 ms, K = 5164 on 300 random points)."""
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


def _signed_modes(k: np.ndarray, b: np.ndarray):
    """Box sines b_k sin(pi k y / 2l) / sqrt(l), y = x - l, as the pairs
    -i b_k e_{+k} + i b_k e_{-k} of the doubled circle's modes
    e_k(y) = exp(i pi k y / 2l) / sqrt(4l): (modes, coefficients)."""
    return np.concatenate([k, -k]), np.concatenate([-1j * b, 1j * b])


def _eval_grid(state: WaveState, m, n: int) -> np.ndarray:
    """Synthesis on the uniform grid x_j = -l + (m/2 + j) 2l/n: the first
    n points of the covering circle's grid of n L / l, at y = x - (L - l),
    by one ``_grid_sum`` over its modes (the box's ``_signed_modes``)."""
    k, c = state.k_values, state.coefficients
    l = state.params.half_length
    cover = _cover(state.domain, l)
    if state.domain == "box":
        k, c = _signed_modes(k, c)
    return _grid_sum(k, c, m, n * round(cover / l))[:n] \
        / math.sqrt(2.0 * cover)


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
      the modes +-k of the doubled circle), and summed by one
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
        qp, cover = state.source, _cover(state.domain, l)
        y, shifted = x - (cover - l), PhasePoint(qp.q - (cover - l), qp.p)
        out = _eval_circle_images(par, shifted, y, state.time, cover)
        if state.domain == "box":
            # The odd part: less the packet's wall mirror.
            out = out - _eval_circle_images(par, PhasePoint(l - qp.q, -qp.p),
                                            y, state.time, cover)
    else:
        raise ContractViolation(f"unknown method {method!r}")
    return out[0] if out.shape == (1,) else out


def circle_overlap(params: PhysicalParams, a: PhasePoint, b: PhasePoint,
                   t: float) -> complex:
    """Scalar product (state_a, evolved state_b) on the circle.

    Computed as the image sum of free-line overlaps over shifts of the
    second label by multiples of 2l (``domain_overlap``).
    """
    return complex(domain_overlap(params, "circle", a.q, a.p, b.q, b.p, t))


def time_scales(params: PhysicalParams, p: float, domain: str) -> TimeScales:
    """Traversal, collapse, and revival times for momentum p; t_cl and
    t_rev are those of the covering circle (``_cover``)."""
    m, l, hbar = params.mass, params.half_length, params.hbar
    cover = _cover(domain, l)
    t_coll = 2.0 * m * l * params.alpha / (math.sqrt(3.0) * hbar)
    t_cl = 2.0 * cover * m / abs(p) if p != 0.0 else math.inf
    t_rev = 4.0 * m * cover * cover / (math.pi * hbar)
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


def limit_profile(structure: RevivalStructure, phase: PhasePoint, D: float,
                  t_offset: float, domain: str, params: PhysicalParams
                  ) -> LimitProfile:
    """Predicted limit density near t = c * t_rev + t_offset.

    Centers sit at q + (2L/N')k + a L/l - (p/m) t_offset, k < n_prime,
    on the covering circle of half-length L (``_cover``): the circle
    itself, or the doubled, unfolded circle of the box, where each
    center lands in the box on one of its two sheets.  D = math.inf
    encodes the uniform profile.
    """
    if D < 0.0:
        raise DomainError("spread D must be in [0, inf]")
    l = params.half_length
    cover = _cover(domain, l)
    n_prime = structure.n_prime
    _check_count(n_prime, "limit profile", "centres")
    drift = -phase.p * t_offset / params.mass
    spacing, offset = 2.0 * cover / n_prime, structure.a * (cover / l)
    centers = tuple(
        wrap_position(phase.q + spacing * k + offset + drift, cover)
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
    period = 2.0 * _cover(profile.domain, l)
    sheets = x[..., None] if profile.domain == "circle" \
        else np.stack([x, 2.0 * l - x], axis=-1)
    z = (sheets[..., None] - np.array(profile.centers)) / period
    dens = theta(z, 2.0 * math.pi * (D / period) ** 2).real
    return profile.weight / period * dens.sum(axis=(-2, -1))
