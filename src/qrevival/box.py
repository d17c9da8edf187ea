"""Coherent states in an infinite square well via the doubled circle.

A box [-l, l] with hard walls unfolds onto a circle of circumference 4l.
Classically, ``_unfold`` puts a box phase point on one of the circle's
two sheets (one per momentum sign) and ``_fold_box`` folds free motion
there back into bouncing motion in the box.  Quantum mechanically, box
states are the odd part of doubled-circle states: box coherent states
are antisymmetrized periodized packets, whose overlaps and norms reduce
to circle kernels on the doubled domain (``circle.domain_overlap``).
``oracles.theta_map`` checks that correspondence on sampled states.
"""

from __future__ import annotations

import numpy as np

from .circle import WaveState, _mode_window, comb_coefficients, \
    domain_overlap
from .params import ContractViolation, DegenerateStateError, DomainError, \
    PhasePoint, PhysicalParams
from .theta import _check_count


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
    windows = [_mode_window(params, pv, 2.0 * lv)
               for pv, lv in zip(p.flat, l.flat)]
    # Rows hold every mode 1..max|k|, not only their windows.
    n_k = max(abs(k) for window in windows for k in window)
    _check_count(n_k, "box coefficient table", "modes")
    windows = np.array(windows, dtype=int).reshape(p.shape + (2,))
    k = np.arange(1, n_k + 1)
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
