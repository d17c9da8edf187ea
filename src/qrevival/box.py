"""Coherent states in an infinite square well via the doubled circle.

A box [-l, l] with hard walls unfolds onto a circle of circumference 4l:
classically through the two-sheeted covering map, quantum mechanically
through the odd-symmetrization map Theta.  Box coherent states are
antisymmetrized periodized packets; their overlaps and norms reduce to
circle kernels on the doubled domain (``circle.domain_overlap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import WaveState, _mode_window, comb_coefficients, \
    domain_overlap
from .params import ContractViolation, DegenerateStateError, DomainError, \
    PhasePoint, PhysicalParams

ROOT_HALF = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class CoveringImage:
    """Image of a box phase point on the doubled circle [-2l, 2l)."""

    q_prime: float
    p_prime: float


def _unfold(q, p, half_length):
    """Unfold box phase points onto the doubled circle, broadcast:
    q' = q - l for p >= 0, q' = l - q for p < 0; p' = |p|."""
    q = np.asarray(q, dtype=float)
    l = half_length
    return np.where(np.asarray(p) >= 0.0, q - l, l - q), np.abs(p)


def _fold_box(q_prime, half_length):
    """Fold doubled-circle positions back into the box, broadcast.

    Returns (q, sign), sign the momentum orientation of the sheet:
    q = q' + l on [-2l, 0) (rightward), q = l - q' on [0, 2l) (leftward).
    """
    l = half_length
    qp = (np.asarray(q_prime, dtype=float) + 2.0 * l) % (4.0 * l) - 2.0 * l
    right = qp < 0.0
    return np.where(right, qp + l, l - qp), np.where(right, 1.0, -1.0)


def covering_map(phase: PhasePoint, half_length: float) -> CoveringImage:
    """Unfold a box phase point onto the doubled circle (``_unfold``)."""
    l = half_length
    if not -l <= phase.q <= l:
        raise DomainError(f"q={phase.q} outside the box [-{l}, {l}]")
    q_prime, p_prime = _unfold(phase.q, phase.p, l)
    return CoveringImage(float(q_prime), float(p_prime))


def fold_position(q_prime: float, half_length: float) -> tuple[float, float]:
    """Fold a doubled-circle position back into the box (``_fold_box``):
    returns (q, sign) as floats."""
    q, sign = _fold_box(q_prime, half_length)
    return float(q), float(sign)


def _check_excluded(params: PhysicalParams, phase: PhasePoint) -> None:
    for corner in (params.half_length, -params.half_length):
        if abs(phase.q - corner) < 3.0 * params.alpha \
                and abs(phase.p) < 3.0 * params.hbar / params.alpha:
            raise DegenerateStateError(
                f"phase point ({phase.q}, {phase.p}) lies within the "
                f"exclusion region around ({corner}, 0) where the box "
                "coherent state degenerates to zero")


def box_coefficient_table(params: PhysicalParams, q, p, half_length
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Sine-basis coefficients of box coherent states, broadcast over labels.

    ``q``, ``p`` and the half-length l broadcast to a label shape S;
    ``params`` supplies hbar and alpha (its own half-length is unused).
    Returns (k, B) with k = 1..K and B of shape S + (K,), B[..., k - 1]
    the coefficient of mode k.  Each row is built from the
    doubled-circle comb C_k of the packet at (q - l, p):
    b_k = i (C_k - C_{-k}), the odd part picked out by antisymmetrizing
    across the wall.  C_k is kept on that row's own doubled-circle mode
    window (modes outside it are exactly 0), and rows are zero-padded to
    the widest window K.
    """
    p, l = np.broadcast_arrays(np.asarray(p, dtype=float),
                               np.asarray(half_length, dtype=float))
    # The window depends on (p, l) only, not on q.
    windows = np.array([_mode_window(params, pv, 2.0 * lv)
                        for pv, lv in zip(p.flat, l.flat)],
                       dtype=int).reshape(p.shape + (2,))
    k = np.arange(1, int(np.max(np.abs(windows))) + 1)
    q = np.asarray(q, dtype=float)[..., None]
    p, l = p[..., None], l[..., None]

    def comb(kk):
        live = (windows[..., :1] <= kk) & (kk <= windows[..., 1:])
        return np.where(live, comb_coefficients(params, kk, q - l, p, 2.0 * l),
                        0.0)

    return k, 1j * (comb(k) - comb(-k))


def box_coefficients(params: PhysicalParams, phase: PhasePoint):
    """Sine-basis coefficients of the box coherent state (modes k >= 1);
    the single row of ``box_coefficient_table``."""
    return box_coefficient_table(params, phase.q, phase.p,
                                 params.half_length)[1]


def make_box_state(params: PhysicalParams, phase: PhasePoint) -> WaveState:
    """Coherent state of the infinite square well labelled by (q, p).

    Refuses labels inside the exclusion neighborhoods of (+-l, 0),
    where the antisymmetrized state collapses to zero: within 3*alpha
    of a wall in position and 3*hbar/alpha of 0 in momentum.
    """
    l = params.half_length
    if not params.alpha < l / 4.0:
        raise ContractViolation(
            f"alpha={params.alpha} must be < half_length/4={l / 4.0}")
    if not -l <= phase.q <= l:
        raise DomainError(f"q={phase.q} outside the box [-{l}, {l}]")
    _check_excluded(params, phase)
    b = box_coefficients(params, phase)
    return WaveState("box", params, 1, b, 0.0, phase)


def theta_map(psi: np.ndarray, half_length: float) -> np.ndarray:
    """Fold a sampled doubled-circle function into the box.

    ``psi`` samples a function on a uniform grid over [-2l, 2l) with an
    even number of points N (so +-l land on grid nodes); returns samples
    of (sqrt(2)/2)[psi(y - l) - psi(l - y)] on [-l, l) with N/2 points.

    The reflections are exact index arithmetic; no interpolation.
    """
    psi = np.asarray(psi)
    n = len(psi)
    if n % 4 != 0:
        raise ContractViolation(
            "doubled-circle grid length must be divisible by 4 so the "
            "wall points align with samples")
    # Grid: y_j = -2l + j * (4l/n).  y - l -> index j - n/4 (mod n);
    # l - y -> index n/4 - j (mod n), since 5n/4 - j wraps to n/4 - j.
    j = np.arange(n)
    shifted = psi[(j - n // 4) % n]
    reflected = psi[(n // 4 - j) % n]
    folded = ROOT_HALF * (shifted - reflected)
    # Keep the box window [-l, l): indices n/4 .. 3n/4 of the y-grid.
    return folded[n // 4: 3 * n // 4]


def theta_inv_map(phi: np.ndarray, half_length: float) -> np.ndarray:
    """Odd-extend sampled box data back to the doubled circle.

    ``phi`` samples [-l, l) with N points; returns 2N samples on
    [-2l, 2l): (sqrt(2)/2) phi(x + l) for x in [-2l, 0),
    -(sqrt(2)/2) phi(l - x) for x in [0, 2l).
    """
    phi = np.asarray(phi)
    n = len(phi)
    if n % 2 != 0:
        raise ContractViolation("box grid length must be even")
    out = np.zeros(2 * n, dtype=complex if np.iscomplexobj(phi) else float)
    # x_i = -2l + i * (2l/n).  For i < n, x + l lands on box index i.
    out[:n] = ROOT_HALF * phi
    # For i >= n, l - x_i lands on box index (2n - i) mod n; at i = n
    # the target is the phi(l) wall value, which the wrap replaces by
    # phi(-l) -- both vanish for genuine box functions.
    i = np.arange(n, 2 * n)
    out[n:] = -ROOT_HALF * phi[(2 * n - i) % n]
    return out


def box_overlap(params: PhysicalParams, a: PhasePoint, b: PhasePoint,
                t: float) -> complex:
    """Scalar product (box state a, evolved box state b); see
    ``domain_overlap``."""
    return complex(domain_overlap(params, "box", a.q, a.p, b.q, b.p, t))


def box_norm_sq(params: PhysicalParams, phase: PhasePoint) -> float:
    """Squared norm of the box coherent state.

    The state's overlap with itself (``domain_overlap`` at t = 0): the
    periodized-packet norm on the doubled circle minus the real cross
    term with its wall reflection; exactly 0 at (+-l, 0).
    """
    return float(domain_overlap(params, "box", phase.q, phase.p, phase.q,
                                phase.p, 0.0).real)
