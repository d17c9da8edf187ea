"""Brute-force oracles the closed-form kernels are tested against.

Nothing here reuses the series shortcuts of the other modules: inner
products are adaptive quadratures, evolution is direct eigenprojection,
and the phase-space completeness check reconstructs states by summing
the coherent states' closed-form coefficients over a phase-space grid.
Box geometry has two independent checks: hard-wall motion by explicit
reflection (``bounce_trajectory``), and the odd-symmetrization map
Theta between sampled doubled-circle and box functions (``theta_map``,
``theta_inv_map``), by exact index arithmetic.  ``p_inf_inner`` gets the
random box's long-time limit from inner products of shifted states.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .box import box_coefficient_table
from .circle import WaveState, circle_coefficients, comb_coefficients
from .params import ContractViolation, OracleFailure, PhasePoint, \
    PhysicalParams
from .randombox import RandomBoxModel, _gl_nodes


@dataclass(frozen=True)
class QuadratureSpec:
    """Starting panel count, at least 1, of the inner-product oracle's
    composite 32-point Gauss-Legendre rule."""

    subdivisions: int = 8

    def __post_init__(self) -> None:
        if self.subdivisions < 1:
            raise ContractViolation("subdivisions must be >= 1")


def _composite_nodes(lo: float, hi: float, subdivisions: int):
    edges = np.linspace(lo, hi, subdivisions + 1)
    x0, w0 = np.polynomial.legendre.leggauss(32)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def quad_inner(f, g, domain: tuple[float, float],
               spec: QuadratureSpec = QuadratureSpec()) -> complex:
    """Inner product integral of conj(f) * g over an interval.

    Starts from ``spec.subdivisions`` panels and doubles the count until
    two successive composite estimates differ by less than 1e-13;
    raises ``OracleFailure`` past 4096 panels.
    """
    lo, hi = domain
    subs = spec.subdivisions
    prev = None
    while subs <= 4096:
        x, w = _composite_nodes(lo, hi, subs)
        est = complex(np.sum(w * np.conjugate(np.asarray(f(x)))
                             * np.asarray(g(x))))
        if prev is not None and abs(est - prev) < 1e-13:
            return est
        prev = est
        subs *= 2
    raise OracleFailure(
        f"quad_inner did not converge: last estimates {prev} vs "
        "subdivision cap 4096")


def _eigenbasis(domain: str, half_length: float, k: np.ndarray,
                x: np.ndarray) -> np.ndarray:
    if domain == "circle":
        return np.exp(1j * math.pi * np.outer(x, k) / half_length) \
            / math.sqrt(2.0 * half_length)
    return np.sin(math.pi * np.outer(x - half_length, k)
                  / (2.0 * half_length)) / math.sqrt(half_length)


def brute_evolve(psi: np.ndarray, params: PhysicalParams, t: float,
                 domain: str) -> np.ndarray:
    """Evolve uniform-grid samples by direct eigenprojection.

    ``psi`` samples [-l, l) on a uniform grid (the left endpoint is
    included, the right excluded; box samples must vanish at -l).
    Projects onto eigenfunctions by the exact discrete orthogonality of
    the grid, applies the spectral phases, and resynthesizes.  Keeps
    modes up to n/8 (at least 8 samples per wavelength) and requires the
    discarded mass to be below 1e-12 of the total.
    """
    psi = np.asarray(psi, dtype=complex)
    n = len(psi)
    l = params.half_length
    h = 2.0 * l / n
    x = -l + h * np.arange(n)
    if domain == "circle":
        k = np.arange(-(n // 8), n // 8 + 1)
    elif domain == "box":
        k = np.arange(1, n // 8 + 1)
    else:
        raise ContractViolation(f"unknown domain {domain!r}")
    basis = _eigenbasis(domain, l, k, x)
    coeff = h * (basis.conj().T @ psi)
    total = h * float(np.sum(np.abs(psi) ** 2))
    kept = float(np.sum(np.abs(coeff) ** 2))
    if total > 0 and total - kept > 1e-12 * total:
        raise ContractViolation(
            f"grid of {n} samples does not resolve the state: discarded "
            f"mass {(total - kept) / total:.2e} exceeds 1e-12; refine the "
            "grid")
    if domain == "circle":
        freq = (math.pi * k / l) ** 2
    else:
        freq = (math.pi * k / (2.0 * l)) ** 2
    phases = np.exp(-1j * params.hbar * t * freq / (2.0 * params.mass))
    return basis @ (coeff * phases)


def bounce_trajectory(phase: PhasePoint, half_length: float, mass: float,
                      t: float) -> PhasePoint:
    """Classical hard-wall trajectory by explicit reflective stepping.

    An event-driven integrator: advances ballistically, reflecting at
    +-l, in exact arithmetic per segment, for at most 200000 wall hits.
    Used as the oracle for the covering-map picture of box motion.
    """
    q, p = phase.q, phase.p
    remaining = t
    for _ in range(200000):
        if p == 0.0:
            return PhasePoint(q, p)
        if p > 0:
            dt_wall = (half_length - q) / (p / mass)
        else:
            dt_wall = (-half_length - q) / (p / mass)
        if dt_wall >= remaining:
            return PhasePoint(q + p * remaining / mass, p)
        q += p * dt_wall / mass
        p = -p
        remaining -= dt_wall
    raise OracleFailure("bounce integrator exceeded its step budget")


ROOT_HALF = math.sqrt(2.0) / 2.0


def theta_map(psi: np.ndarray) -> np.ndarray:
    """Fold a sampled doubled-circle function into the box.

    ``psi`` samples a function on a uniform grid over [-2l, 2l) with a
    number of points N divisible by 4 (so +-l land on grid nodes); returns samples
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


def theta_inv_map(phi: np.ndarray) -> np.ndarray:
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


def odd_periodic_extend(psi: Callable[[np.ndarray], np.ndarray], x,
                        half_length: float) -> np.ndarray:
    """Extend a box function to the line: psi(x) = (-1)^n psi((-1)^n u)
    with x = u + 2 n l, u in [-l, l].

    The extension is odd about each wall and 4l-periodic.
    """
    n = np.round(np.asarray(x, dtype=float) / (2.0 * half_length))
    sign = 1.0 - 2.0 * (n % 2)
    return sign * np.asarray(psi(sign * (x - 2.0 * n * half_length)))


def p_inf_inner(model: RandomBoxModel, x) -> np.ndarray:
    """Long-time limit density of the random box from inner products: at
    each size node l, (chi_l(x) / 2l) (1 - Re(psi_l, psi_l(. + s) +
    psi_l(. - s)) / 2) with s = 2x - 2l, the shifted states read through
    ``odd_periodic_extend`` and the products taken by the midpoint rule.
    It shares the size nodes, not the Chebyshev series, of
    uniform_part - delta_correction."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes, weights, _ = _gl_nodes(model, 0.0)
    out = np.zeros_like(x)
    for l, wf in zip(nodes, weights * model.f_density(nodes)):
        b = model.coefficients_for(l)
        k = np.arange(1, len(b) + 1)

        def psi(y):
            return _eigenbasis("box", l, k, y) @ b

        ng = max(512, 16 * len(b))
        yg = -l + 2.0 * l / ng * (np.arange(ng) + 0.5)
        psig = psi(yg)
        for i in np.nonzero(np.abs(x) <= l)[0]:
            s = 2.0 * x[i] - 2.0 * l
            shifted = odd_periodic_extend(psi, yg + s, l) \
                + odd_periodic_extend(psi, yg - s, l)
            inner = np.vdot(psig, shifted).real * (2.0 * l / ng)
            out[i] += wf / (2.0 * l) * (1.0 - 0.5 * inner)
    return out


# Times ``resolution_residual`` may widen its momentum windows by 1.5x.
MAX_WIDENINGS = 6


@dataclass(frozen=True)
class PhaseGridSpec:
    """Phase-space quadrature grid for the completeness check: nq
    positions, np_ momenta shared among the windows of half-width
    8 hbar/alpha around ``p_centers``."""

    nq: int = 256
    np_: int = 256
    p_centers: tuple[float, ...] = (0.0,)


def _coefficient_matrix(params: PhysicalParams, domain: str,
                        q: np.ndarray, p: np.ndarray, k: np.ndarray
                        ) -> np.ndarray:
    """Coherent-state coefficients over the state's mode window.

    Returns an (np, nq, nk) array: the spectral coefficients of the
    coherent states labelled (q_i, p_j), in the same basis as the target
    state, for every momentum p_j and position q_i.
    """
    p = np.asarray(p, dtype=float)[:, None]
    if domain == "circle":
        return comb_coefficients(params, k, q[:, None], p[..., None],
                                 params.half_length)
    # Box modes k run from 1, as the table's do; the table is exactly
    # zero past its own window.
    k_tab, table = box_coefficient_table(params, q, p, params.half_length)
    mat = np.zeros(table.shape[:-1] + (len(k),), dtype=complex)
    n = min(len(k_tab), len(k))
    mat[..., :n] = table[..., :n]
    return mat


def _window_discard(params: PhysicalParams, state: WaveState,
                    p_lo: np.ndarray, p_hi: np.ndarray) -> float:
    """Fraction of coherent-weight mass outside the momentum windows."""
    l = params.half_length if state.domain == "circle" \
        else 2.0 * params.half_length
    pk = math.pi * params.hbar * state.k_values / l
    if state.domain == "box":
        pk = np.concatenate([pk, -pk])
    # Coherent weight in p is Gaussian with std hbar/(2 alpha).
    s2 = params.hbar / (math.sqrt(2.0) * params.alpha)
    erf = np.vectorize(math.erf)
    inside = np.zeros_like(pk)
    for lo, hi in zip(p_lo, p_hi):
        inside += 0.5 * (erf((hi - pk) / s2) - erf((lo - pk) / s2))
    inside = np.clip(inside, 0.0, 1.0)
    w = np.abs(state.coefficients) ** 2
    if state.domain == "box":
        w = np.concatenate([w, w]) * 0.5
    total = float(np.sum(w))
    return float(np.sum(w * (1.0 - inside))) / total


def resolution_residual(state: WaveState, grid: PhaseGridSpec = PhaseGridSpec()
                        ) -> float:
    """Relative L2 error of phase-space coherent-state reconstruction.

    Reconstructs the state as (1/2 pi hbar) * sum over a (q, p) grid of
    overlap-weighted coherent states and returns the relative error in
    coefficient space.  Each momentum window starts at half-width
    8 hbar/alpha and is widened by 1.5x, at most ``MAX_WIDENINGS``
    times, while the windows miss more than 1e-8 of the coherent-weight
    mass.

    The momenta of each window are taken in blocks of at most 2**17
    coefficients: one ``_coefficient_matrix`` call builds the
    coefficients M of every (q_i, p_j) node in the block from the
    production closed form, and two matrix products contract them, the
    overlaps ov = conj(M @ conj(c)) and then rec += ov @ M, summed over
    q for each p_j before the block's momenta are added.  A block of
    momenta replaces a Python iteration per momentum, and its size keeps
    the check's peak memory near one block (about 2 MB).  Blocking only
    batches the nodes; each coherent state is still built from
    ``comb_coefficients`` or ``box_coefficient_table``, never shifted
    from a neighbour, so the check does not assume the translation
    identity it tests.
    """
    params = state.params
    l = params.half_length
    halfwidth = 8.0 * params.hbar / params.alpha
    nrm = math.sqrt(state.norm_sq())
    if abs(nrm - 1.0) > 1e-6:
        raise ContractViolation("resolution_residual requires unit norm")
    for _ in range(MAX_WIDENINGS + 1):
        centers = np.asarray(grid.p_centers, dtype=float)
        windows = _merge_windows(centers - halfwidth, centers + halfwidth)
        p_lo = np.array([w[0] for w in windows])
        p_hi = np.array([w[1] for w in windows])
        if _window_discard(params, state, p_lo, p_hi) <= 1e-8:
            break
        halfwidth *= 1.5
    else:
        raise OracleFailure(
            "momentum window still discards > 1e-8 of the coherent mass "
            f"after {MAX_WIDENINGS} widenings")

    # Extend the mode range so leakage into neighbouring modes counts
    # toward the residual; the coherent weight spans ~sqrt(40)*l/(pi a)
    # modes around any momentum inside the windows.
    basis_l = l if state.domain == "circle" else 2.0 * l
    pad = int(math.ceil(basis_l * math.sqrt(40.0)
                        / (math.pi * params.alpha))) + 2
    k_from_p = [basis_l * pp / (math.pi * params.hbar)
                for pp in np.concatenate([p_lo, p_hi])]
    k_lo = min(int(state.k_values[0]), math.floor(min(k_from_p))) - pad
    k_hi = max(int(state.k_values[-1]), math.ceil(max(k_from_p))) + pad
    if state.domain == "box":
        k_lo = max(k_lo, 1)
        k_hi = max(k_hi, int(state.k_values[-1]))
    k = np.arange(k_lo, k_hi + 1)
    c = np.zeros(len(k), dtype=complex)
    c[int(state.k_values[0]) - k_lo:
      int(state.k_values[-1]) - k_lo + 1] = state.coefficients

    dq = 2.0 * l / grid.nq
    q = -l + dq * (np.arange(grid.nq) + 0.5)
    total_span = float(np.sum(p_hi - p_lo))
    rec = np.zeros_like(c)
    # Blocks of momenta of at most 2**17 coefficients (about 2 MB
    # complex): large enough that a block is two matrix products, small
    # enough to stay below the CLI's largest transient arrays.
    per_block = max(1, 2**17 // (len(q) * len(k)))
    for lo, hi in zip(p_lo, p_hi):
        np_win = max(int(round(grid.np_ * (hi - lo) / total_span)), 2)
        dp = (hi - lo) / np_win
        p = lo + dp * (np.arange(np_win) + 0.5)
        for j in range(0, np_win, per_block):
            mat = _coefficient_matrix(params, state.domain, q,
                                      p[j:j + per_block], k)
            ov = np.conjugate(mat @ np.conjugate(c))
            # Sum each momentum's q rows before adding momenta: the q sum
            # cancels almost exactly, and one sum over all the block's
            # rows was 7x less accurate for an eigenstate.
            rec += np.sum(ov[:, None, :] @ mat, axis=(0, 1)) * (dq * dp)
            # Free this block before the next one is built.
            del mat
    rec /= 2.0 * math.pi * params.hbar
    return float(np.linalg.norm(rec - c) / np.linalg.norm(c))


def _merge_windows(lo: np.ndarray, hi: np.ndarray) -> list[tuple[float, float]]:
    """Union of intervals [lo_i, hi_i] as disjoint sorted intervals."""
    order = np.argsort(lo)
    merged: list[tuple[float, float]] = []
    for i in order:
        a, b = float(lo[i]), float(hi[i])
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


# ---------------------------------------------------------------------------
# Golden-file plumbing: frozen oracle outputs with their generating config.
# ---------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_golden(path, config: dict, rows: list[dict], tolerance: float
                 ) -> None:
    """Freeze oracle outputs to CSV with the generating config attached."""
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        fh.write(f"# config_hash: {config_hash(config)}\n")
        fh.write(f"# tolerance: {tolerance!r}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: repr(val) if isinstance(val, float)
                             else val for key, val in row.items()})


def read_golden(path):
    """Load a golden CSV; returns (config, tolerance, rows of strings)."""
    config = None
    tolerance = None
    body = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# config: "):
                config = json.loads(line[len("# config: "):])
            elif line.startswith("# tolerance: "):
                tolerance = float(line[len("# tolerance: "):])
            elif line.startswith("#"):
                continue
            else:
                body.append(line)
    rows = list(csv.DictReader(body))
    return config, tolerance, rows


def circle_state_callable(params: PhysicalParams, phase: PhasePoint,
                          t: float = 0.0):
    """Time-t circle coherent state as a plain callable (for quad_inner)."""
    k_min, c = circle_coefficients(params, phase)
    l = params.half_length
    k = k_min + np.arange(len(c))
    ph = np.exp(-1j * params.hbar * t * (math.pi * k / l) ** 2
                / (2.0 * params.mass))
    ck = c * ph

    def fn(x):
        x = np.asarray(x, dtype=float)
        return (np.exp(1j * math.pi * np.outer(x, k) / l)
                @ ck) / math.sqrt(2.0 * l)

    return fn
