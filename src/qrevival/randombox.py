"""Position statistics in a box whose size carries a random error.

The box half-size l is a random variable with density f(l).  The mixed
position density P(x, t) averages |psi_l(x, t)|^2 over f; unlike the
fixed-size box it is not periodic in time and settles (in time average)
to a limit P_inf(x) = uniform_part(x) - delta_correction(x), which
``oracles.p_inf_inner`` cross-checks.

Every other density is one size average (``_size_average``): a
Gauss-Legendre sum over l with one coefficient table per order
(``RandomBoxModel.coefficient_table``), and on each block of nodes one
Chebyshev series in cos theta per node; only the series' coefficients
differ.  With theta = pi (x - l) / 2l, the product of two box modes is
sin k theta sin k' theta = [T_|k-k'|(cos theta) - T_(k+k')(cos theta)] / 2,
so any quadratic form in the modes is a series of degree 2K, summed by
Clenshaw's recurrence at one sine per (node, point).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .box import box_coefficient_table
from .circle import _evolution_phases, _mode_window
from .params import ContractViolation, DomainError, PhysicalParams
from .theta import _check_count

# Entries of one block of size-quadrature nodes, counted by each node's
# largest temporary: max(points, Chebyshev degree + 1).
NODE_BLOCK_CAP = 2**16


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
        if self.eigen_index < 1:
            raise ContractViolation("eigen_index must be >= 1")
        if not 0.0 < self.l_sigma < math.inf:
            raise DomainError("l_sigma must be positive and finite")
        if not 4.0 * self.l_sigma < self.l_center < math.inf:
            raise DomainError(
                "l_center must be finite and exceed 4 * l_sigma, so the "
                "support of the size density stays positive")

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

    def coefficients_for(self, l: float) -> np.ndarray:
        """Unit-normalized sine-basis coefficients of psi_l (modes 1..K)."""
        return self.coefficient_table([l])[1][0]

    def coefficient_table(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """Sine-basis coefficients of psi_l for every half-size in ``nodes``.

        Returns (k, B) with k = 1..K and B[n, k - 1] the unit-normalized
        coefficient of mode k at nodes[n].  A coherent row is the row of
        ``box.box_coefficient_table`` at (q_rel l, p) and half-size l,
        normalized by sum |b_k|^2, which equals ``box.box_norm_sq`` up to
        the mode-window truncation.
        """
        l = np.atleast_1d(np.asarray(nodes, dtype=float))
        if self.kind == "eigenstate":
            _check_count(self.eigen_index, "eigenstate table", "modes")
            table = np.zeros((len(l), self.eigen_index), dtype=complex)
            table[:, -1] = 1.0
            return np.arange(1, self.eigen_index + 1), table
        k, table = box_coefficient_table(self.template, self.q_rel * l,
                                         self.p, l)
        norm_sq = np.sum(table.real**2 + table.imag**2, axis=1)
        return k, table / np.sqrt(norm_sq)[:, None]


def _chebyshev_density(l: np.ndarray, coeffs: np.ndarray, x: np.ndarray
                       ) -> np.ndarray:
    """sum_m coeffs[n, m] T_m(u) with u = cos(pi (x - l_n) / 2 l_n), on a
    (nodes x points) block, zero where |x| > l_n.

    Clenshaw's recurrence (Math. Comp. 9, 118 (1955)) in Reinsch's form,
    on d_m = b_m - b_(m+1) and mu = 2 (u - 1) = -4 sin^2(theta / 2): one
    sine per (node, point) and four array operations per degree.  Plain
    Clenshaw on a rounded u loses accuracy near the walls, where u -> 1
    and T_m'(1) = m^2: against a 30-digit sum at degree 1988 it was off
    by 6.7e-13 of the maximum, this form by 2.4e-15.  Points with x < 0
    use T_m(-u) = (-1)^m T_m(u) at -x, so mu stays in [-2, 0].
    """
    lc = l[:, None]
    out = np.empty((len(l), len(x)))
    parity = np.where(np.arange(coeffs.shape[1]) % 2, -1.0, 1.0)
    for side, a in ((x >= 0.0, coeffs), (x < 0.0, coeffs * parity)):
        mu = np.sin((np.abs(x[side]) - lc) * (0.25 * math.pi / lc))
        mu *= -4.0 * mu
        b, d, mu_b = np.zeros_like(mu), np.zeros_like(mu), np.empty_like(mu)
        for a_m in a.T[:0:-1]:
            d += np.multiply(mu, b, out=mu_b)
            d += a_m[:, None]
            b += d
        mu *= 0.5 * b
        out[:, side] = mu + d + a[:, :1]
    return np.where(np.abs(x) <= lc, out, 0.0)


def _node_blocks(n_nodes: int, per_node: int) -> list[slice]:
    """Node slices holding at most NODE_BLOCK_CAP entries (one node at
    least), given the entries per node."""
    rows = max(1, NODE_BLOCK_CAP // max(1, per_node))
    return [slice(i, i + rows) for i in range(0, n_nodes, rows)]


@functools.lru_cache(maxsize=16)
def _legendre_gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term Legendre recurrence, started from
    Tricomi's estimates of the non-negative nodes and mirrored; O(n^2)
    work, against O(n^3) for the companion-matrix eigensolve.  For odd n
    the middle node is exactly 0.  The arrays are shared between callers
    and read-only.
    """
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) \
        * np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    x[n // 2:] = 0.0

    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    # Quadratic convergence: three steps reach rounding from Tricomi's
    # estimates for every n tested up to 4097.
    for _ in range(10):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    h = n // 2
    nodes = np.concatenate([-x[:h], np.zeros(n % 2), x[:h][::-1]])
    weights = np.concatenate([w[:h], w[h:], w[:h][::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gl_nodes(model: RandomBoxModel, t: float, order: int | None = None
              ) -> tuple[np.ndarray, np.ndarray, int]:
    """Gauss-Legendre nodes/weights over the f support.

    The order is picked first: from 129 (or ``order``) it grows as
    2 order - 1, up to 4097, until the fastest retained spectral phase
    difference changes by less than pi/8 between adjacent nodes at the
    requested time.  The density only sees frequency differences, so a
    single-mode state never escalates the order.
    """
    lo, hi = model.support
    par = model.template
    order = 129 if order is None else order
    # Sine k lives where comb mode k or -k does (box_coefficient_table).
    k_min, k_max = (model.eigen_index,) * 2 if model.kind == "eigenstate" \
        else _mode_window(par, model.p, 2.0 * model.l_center)
    k_hi = max(-k_min, k_max)
    _check_count(k_hi, "box coefficient table", "modes")
    k_lo = 1 if k_min <= 0 <= k_max else min(abs(k_min), abs(k_max))
    # d/dl of hbar pi^2 (k_hi^2 - k_lo^2) t / (8 m l^2) is
    # -(2/l) times the phase difference.
    phase_slope = par.hbar * math.pi**2 * (k_hi**2 - k_lo**2) * abs(t) \
        / (4.0 * par.mass * lo**3)
    while True:
        spread = phase_slope * ((hi - lo) / order)
        if spread < math.pi / 8.0 or order >= 4097:
            break
        order = 2 * order - 1
    if spread >= math.pi / 8.0:
        warnings.warn(
            "size quadrature order capped at 4097 but the "
            f"spectral phase still varies by {spread:.2f} "
            "between nodes; results may lose accuracy")
    x0, w0 = _legendre_gauss(order)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x0
    return nodes, 0.5 * (hi - lo) * w0, order


@functools.lru_cache(maxsize=1)
def _size_table(model: RandomBoxModel, order: int):
    """Read-only nodes, weights w f(l) / l and table (k, B) of one order,
    kept for the next call: p_xt at t = 20 and the time average share 2049."""
    nodes, weights, _ = _gl_nodes(model, 0.0, order)
    k, table = model.coefficient_table(nodes)
    wf = weights * model.f_density(nodes) / nodes
    for a in (nodes, wf, k, table):
        a.setflags(write=False)
    return nodes, wf, k, table


def _size_average(model: RandomBoxModel, x, order: int, coeffs) -> np.ndarray:
    """sum_n w_n f(l_n) / l_n S_n(x) over the nodes of one order, S_n the
    Chebyshev series whose coefficients ``coeffs(l, k, B)`` gives for a
    block of nodes l with coefficient rows B over modes k.  Node blocks
    hold max(points, 2K + 1) entries per node."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes, wf, k, table = _size_table(model, order)
    out = np.zeros_like(x)
    for blk in _node_blocks(len(nodes), max(len(x), 2 * len(k) + 1)):
        l = nodes[blk]
        out += wf[blk] @ _chebyshev_density(l, coeffs(l, k, table[blk]), x)
    return out


def p_xt(model: RandomBoxModel, x, t: float,
         order: int | None = None) -> np.ndarray:
    """Mixed position density P(x, t) on an array of positions.

    ``order`` pins the size-quadrature order; by default it adapts to
    the requested time.

    At a node l with phased coefficients c_k (k = 1..K), the density
    (chi_l / l) |sum_k c_k sin k theta|^2, theta = pi (x - l) / 2l, is by
    sin k theta sin k' theta = [T_|k-k'|(u) - T_(k+k')(u)] / 2, u = cos
    theta, the Chebyshev series sum_m a_m T_m(u) of degree 2K with
    a = (A' - B) / 2.  A_m = Re sum_k c_(k+m) conj(c_k) is the
    autocorrelation, doubled for m > 0 (A'_0 = A_0, A'_m = 2 A_m), and
    B_m = Re sum_(k+k'=m) c_k conj(c_k') the convolution.  Both come
    from one real FFT of length 2K + 1 of (Re c, Im c).  The circular
    correlation is exact for lags below K and is read only there.
    """
    if order is None:
        order = _gl_nodes(model, t)[2]
    par = model.template

    def coeffs(l, k, b):
        n_k, n_fft = len(k), 2 * len(k) + 1
        # Named, not a temporary: numpy would multiply into a temporary
        # in place, by a complex loop that rounds differently.
        phases = _evolution_phases(par, k, t, 2.0 * l[:, None])
        c = b * phases
        # Column k holds mode k, so lags and index sums are degrees.
        parts = np.zeros((2, len(l), n_k + 1))
        parts[0, :, 1:] = c.real
        parts[1, :, 1:] = c.imag
        f = np.fft.rfft(parts, n_fft)
        corr, conv = np.fft.irfft(
            [np.sum(f.real**2 + f.imag**2, axis=0), np.sum(f * f, axis=0)],
            n_fft)
        a = -0.5 * conv
        a[:, 0] += 0.5 * corr[:, 0]
        a[:, 1:n_k] += corr[:, 1:n_k]
        return a

    return _size_average(model, x, order, coeffs)


def uniform_part(model: RandomBoxModel, x) -> np.ndarray:
    """The flat component integral of chi_l(x) f(l) / (2l) over l."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes, weights, _ = _gl_nodes(model, 0.0)
    wf = weights * model.f_density(nodes) / (2.0 * nodes)
    out = np.zeros_like(x)
    for blk in _node_blocks(len(nodes), len(x)):
        out += wf[blk] @ (np.abs(x) <= nodes[blk, None])
    return out


def delta_correction(model: RandomBoxModel, x) -> np.ndarray:
    """Correction Delta(x) with P_inf(x) = uniform_part(x) - Delta(x).

    Spectrally, Delta integrates (chi_l / 2l) sum_k |a_k|^2
    cos(pi k (x - l) / l) over the size density.  cos 2k theta is
    T_2k(cos theta), so each node is a Chebyshev series with |a_k|^2 / 2
    at degree 2k (the 1/2 of 1/2l, a power of two, so exact).
    """
    def coeffs(l, k, b):
        a = np.zeros((len(l), 2 * len(k) + 1))
        a[:, 2::2] = 0.5 * (b.real**2 + b.imag**2)
        return a

    return _size_average(model, x, _gl_nodes(model, 0.0)[2], coeffs)


def time_average_density(model: RandomBoxModel, x, t_start: float | None
                         = None, window: float | None = None,
                         n_samples: int = 4096, order: int = 2049
                         ) -> np.ndarray:
    """Average of P(x, t) over n_samples equispaced times in
    [t_start, t_start + window].

    Defaults: t_start = 10 T_rev(l_center), window = 40 T_rev(l_center).
    With dt = window / n_samples, the sample mean of each mode pair's
    phase exp(-i dw (t_start + j dt)), j < n_samples, has the Dirichlet
    closed form exp(-i dw (t_start + (n - 1) dt / 2))
    sin(n dw dt / 2) / (n sin(dw dt / 2)), exact also when dw dt is
    close to a multiple of 2 pi.  For a fixed set of size-quadrature
    nodes the result therefore equals brute-force averaging of the
    sampled densities to rounding (tested against the sample mean of
    ``p_xt``).  The averaged kernel is smooth on the mode diagonal and
    strongly damped off it, so a fixed ``order`` replaces the
    single-time node-spacing rule.

    Each node's density is a Chebyshev series in u = cos theta (see
    ``p_xt``): the damped kernel Re(c_k conj(c_k')) D(w_k - w_k'), with
    D the Dirichlet factor, is summed one diagonal k' = k + m at a time,
    m < K.  A diagonal adds to degree m (half of it for m = 0, the two
    mirrored diagonals for m > 0) and is subtracted at degrees 2k + m,
    so no K x K array is formed.
    """
    par = model.template
    l0 = model.l_center
    t_rev = 16.0 * par.mass * l0 * l0 / (math.pi * par.hbar)
    if t_start is None:
        t_start = 10.0 * t_rev
    if window is None:
        window = 40.0 * t_rev
    dt = window / n_samples
    t_mid = t_start + 0.5 * (n_samples - 1) * dt

    def coeffs(l, k, b):
        n_k = len(k)
        omega = par.hbar * (math.pi * k / (2.0 * l[:, None])) ** 2 \
            / (2.0 * par.mass)
        # exp(-i dw t_mid) factors into per-mode phases.  The averaged
        # kernel is Hermitian and the basis real, so only its real part
        # reaches the density.
        c = b * np.exp(-1j * omega * t_mid)
        a = np.zeros((len(l), 2 * n_k + 1))
        for m in range(n_k):
            lo, hi = slice(0, n_k - m), slice(m, n_k)
            half = 0.5 * dt * (omega[:, lo] - omega[:, hi])
            den = n_samples * np.sin(half)
            diag = np.divide(np.sin(n_samples * half), den,
                             out=np.ones_like(den), where=den != 0.0)
            diag *= c.real[:, lo] * c.real[:, hi] \
                + c.imag[:, lo] * c.imag[:, hi]
            if m == 0:
                diag *= 0.5
            a[:, m] += np.sum(diag, axis=1)
            a[:, 2 + m:2 * n_k - m + 1:2] -= diag
        return a

    return _size_average(model, x, order, coeffs)
