"""Free-line Gaussian packets and the Jacobi theta series.

Everything on the circle and in the box reduces to these kernels:

* ``theta``          -- theta(z, tau) = sum_k exp(-pi tau k^2 + 2 pi i k z),
  Re tau > 0, for scalar or array z: Im tau is reduced exactly first,
  then the sum runs in the series or the modular image form, whichever
  needs fewer terms;
* ``gaussian_packet`` -- the freely evolving minimal packet eta_{qp,t};
* ``gaussian_overlap`` -- the closed-form scalar product
  (eta_{qp}, eta_{q'p',t});
* ``periodized_overlap`` -- the theta-type image sum
  sum_n (eta_{qp}, eta_{q'+n L, p', t}) over a period L.  Circle overlaps
  are this sum with L = 2l; box overlaps are the same sum on the doubled
  circle (L = 4l) minus its wall mirror; ``circle.domain_overlap``
  holds both.  Single overlaps, norms and Husimi grids use it through
  ``domain_overlap``; ``husimi.transition_grid`` uses it only where it
  costs less than the kernel's spectral form, a mode sum per momentum
  column (``overlap_decay`` sizes its image window).

``image_window`` is the one truncation rule for every Gaussian-weighted
lattice sum (image shifts and Fourier modes alike).  ``_check_count``
refuses a window (modes, images, theta terms or revival centres) above
``MODE_CAP`` or without a finite bound before any array holds it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .params import (CapacityError, DomainError, PhasePoint, PhysicalParams,
                     RangeError)

# Lattice sums keep every term whose Gaussian weight is above
# e^-WINDOW_LOG (~4e-18), plus one term of padding on each side.
WINDOW_LOG = 40.0
# Terms of one window; read at call time by ``_check_count``.
MODE_CAP = 10**7
# Entries of one (labels x images) block of the periodized overlap.
BLOCK_CAP = 2**22

_EXP_CAP = 709.0  # log of the largest finite double


def theta(z, tau: complex):
    """Jacobi theta function sum_k exp(-pi tau k^2 + 2 pi i k z).

    Parameters
    ----------
    z : complex or array of complex
    tau : complex
        Must satisfy Re tau > 0.

    Returns
    -------
    complex for scalar ``z``, otherwise an array of the shape of ``z``.

    Notes
    -----
    Im tau is first reduced exactly into [-1/2, 1/2]: theta is invariant
    under tau -> tau + 2i, and tau -> tau + i is the shift z -> z + 1/2.
    The sum then runs over an ``image_window`` range in whichever form
    needs fewer terms: the defining series, or its modular image
    (1/sqrt(tau)) sum_n exp(-pi (z - n)^2 / tau), which wins when
    |tau| < 1.
    """
    tau = complex(tau)
    if not tau.real > 0.0:
        raise DomainError(f"theta requires Re tau > 0, got tau={tau!r}")
    turns = round(tau.imag)
    tau = complex(tau.real, tau.imag - turns)
    z = np.asarray(z, dtype=complex) + 0.5 * (turns % 2)
    a = tau.real
    # |series term k| ~ exp(-pi a (k + Im z / a)^2); |image term n| ~
    # exp(-pi (a / |tau|^2) (n - Re z - Im tau Im z / a)^2).
    k_lo, k_hi = image_window(math.pi * a, float(np.min(z.imag)) / a,
                              float(np.max(z.imag)) / a, 1.0)
    drift = -(z.real + tau.imag * z.imag / a)
    n_lo, n_hi = image_window(math.pi * a / abs(tau) ** 2,
                              float(np.min(drift)), float(np.max(drift)), 1.0)
    _check_count(min(k_hi - k_lo, n_hi - n_lo) + 1, "theta", "terms")
    if k_hi - k_lo <= n_hi - n_lo:
        k = np.arange(k_lo, k_hi + 1)
        expo = -math.pi * tau * k**2 + 2j * math.pi * k * z[..., None]
        scale = 1.0
    else:
        n = np.arange(n_lo, n_hi + 1)
        expo = -math.pi * (z[..., None] - n) ** 2 / tau
        scale = 1.0 / cmath.sqrt(tau)
    if np.max(expo.real) > _EXP_CAP:
        raise RangeError(f"theta term overflows exp ({np.max(expo.real):.1f})")
    out = scale * np.exp(expo).sum(axis=-1)
    return complex(out) if out.ndim == 0 else out


def gaussian_packet(params: PhysicalParams, phase: PhasePoint, x, t: float = 0.0):
    """Freely evolving Gaussian packet eta_{qp,t}(x) on the line.

    At t = 0 this is the minimal packet
    (2 pi alpha^2)^(-1/4) exp{-(x-q)^2/(4 alpha^2) + i p (x-q)/hbar};
    for t != 0 the centre moves along the classical trajectory and the
    width grows with gamma = hbar t / (2 m alpha^2).

    ``x`` may be a scalar or an ndarray; the return matches.
    """
    a2 = params.alpha**2
    g = params.gamma(t)
    q, p = phase.q, phase.p
    m, hbar = params.mass, params.hbar
    # (1+i gamma)^(-1/2) via the principal log keeps the prefactor
    # continuous in t through gamma = 0.
    pref = (2.0 * math.pi * a2) ** (-0.25) * cmath.exp(-0.5 * cmath.log(1.0 + 1j * g))
    x = np.asarray(x, dtype=float)
    xc = x - q - p * t / m
    expo = (-xc**2 / (4.0 * a2 * (1.0 + 1j * g))
            + 1j * p * (x - q - p * t / (2.0 * m)) / hbar)
    out = pref * np.exp(expo)
    return out[()] if out.ndim == 0 else out


def dispersion(params: PhysicalParams, t: float) -> float:
    """Position mean-square deviation sqrt(alpha^2 + (hbar t / 2 m alpha)^2)."""
    return math.hypot(params.alpha,
                      params.hbar * t / (2.0 * params.mass * params.alpha))


def overlap_core(params: PhysicalParams, q, p, qb, pb, t: float):
    """Closed-form (eta_{qp}, eta_{q'p',t}) with array support in all labels.

    Returns
    -------
    complex scalar or ndarray broadcast over ``q``, ``p``, ``qb``, ``pb``.
    """
    a2 = params.alpha**2
    g = params.gamma(t)
    m, hbar = params.mass, params.hbar
    qb = np.asarray(qb, dtype=float)
    pb = np.asarray(pb, dtype=float)
    dq = qb - q
    ps = pb + p
    pd = pb - p
    pref = cmath.sqrt(2.0 / (2.0 + 1j * g))
    expo = (-(dq + ps * t / (2.0 * m)) ** 2 / (4.0 * a2 * (2.0 + 1j * g))
            - a2 * pd**2 / (2.0 * hbar**2)
            - 1j * ps * dq / (2.0 * hbar)
            - 1j * t * ps**2 / (8.0 * m * hbar))
    out = pref * np.exp(expo)
    return out[()] if out.ndim == 0 else out


def gaussian_overlap(params: PhysicalParams, a: PhasePoint, b: PhasePoint,
                     t: float = 0.0) -> complex:
    """Scalar product (eta_a, eta_{b,t}) of free-line packets, in closed form."""
    return complex(overlap_core(params, a.q, a.p, b.q, b.p, t))


def image_window(decay: float, lo: float, hi: float, period: float
                 ) -> tuple[int, int]:
    """Inclusive range (n_lo, n_hi) of lattice indices that can matter.

    Keeps every n for which exp(-decay (d + n period)^2) is above
    e^-WINDOW_LOG for some offset d in [lo, hi], padded by one index on
    each side.  A window without a finite bound (decay 0, offsets that
    overflowed) is (-inf, inf), which only ``_check_count`` may size.
    """
    reach = math.sqrt(WINDOW_LOG / decay) if decay > 0.0 else math.inf
    n_lo, n_hi = (-hi - reach) / period, (reach - lo) / period
    if not math.isfinite(n_lo) or not math.isfinite(n_hi):
        return -math.inf, math.inf
    return math.floor(n_lo) - 1, math.ceil(n_hi) + 1


def _check_count(n, what: str, unit: str) -> None:
    """Refuse a window of more than MODE_CAP terms (``unit``), or one
    without a finite bound, before any array or loop holds it."""
    if not n <= MODE_CAP:
        raise CapacityError(f"{what} needs {n} {unit} (cap {MODE_CAP})")


def overlap_decay(params: PhysicalParams, t: float) -> float:
    """Rate of the Gaussian fall-off exp(-decay d^2) of
    |(eta_{qp}, eta_{q'p',t})| in the centre offset
    d = q' - q + (p + p') t / 2m."""
    g = params.gamma(t)
    return 1.0 / (2.0 * params.alpha**2 * (4.0 + g * g))


def _shifts(decay: float, drift, period: float) -> np.ndarray:
    """Image shifts n * period for offsets spanning ``drift``."""
    lo, hi = (float(drift.min()), float(drift.max())) \
        if isinstance(drift, np.ndarray) else (drift, drift)
    n_lo, n_hi = image_window(decay, lo, hi, period)
    _check_count(n_hi - n_lo + 1, "overlap image window", "images")
    return period * np.arange(n_lo, n_hi + 1)


def _image_sum(params: PhysicalParams, q, p, qb, pb, t: float,
               shifts: np.ndarray) -> np.ndarray:
    """Overlaps summed over the image shifts, on a new last axis."""
    def col(v):
        return v[..., None] if isinstance(v, np.ndarray) else v
    vals = overlap_core(params, col(q), col(p), col(qb) + shifts, col(pb), t)
    return vals.sum(axis=-1)


def periodized_overlap(params: PhysicalParams, q, p, qb, pb, t: float,
                       period: float):
    """Image sum sum_n (eta_{qp}, eta_{qb + n period, pb, t}).

    The labels are floats or ndarrays that broadcast against each other;
    the result has their broadcast shape (a complex scalar when all are
    floats).  The image window follows the spread of the labels, so
    batching a grid differently changes the sum only by rounding.  Work
    above BLOCK_CAP (labels x images) entries is split into blocks along
    the first axis, each with its own window; a block holds one row at
    least, however many images that takes.
    """
    decay = overlap_decay(params, t)
    drift = qb - q + (p + pb) * (t / (2.0 * params.mass))
    shifts = _shifts(decay, drift, period)
    n, size = (len(drift), drift.size) if getattr(drift, "ndim", 0) \
        else (1, 1)
    rows = max(1, BLOCK_CAP * n // (size * len(shifts)))
    if rows >= n:
        # One block: the loop would find this window again and copy the
        # result, 12 us a call on a 2-vCPU Xeon (+12% at 128 labels).
        return _image_sum(params, q, p, qb, pb, t, shifts)
    out = np.empty(drift.shape, dtype=complex)
    for i in range(0, len(drift), rows):
        block = slice(i, i + rows)
        labels = [v[block] if np.ndim(v) == drift.ndim and len(v) > 1
                  else v for v in (q, p, qb, pb)]
        out[block] = _image_sum(params, *labels, t,
                                _shifts(decay, drift[block], period))
    return out
