"""Acceptance criteria: one test and one printed verdict line each.

Each test prints ``criterion N: PASS/FAIL ...`` through the capture
bypass so the verdicts are visible in the normal pytest output.
"""

import dataclasses
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from qrevival.box import box_norm_sq, box_overlap, make_box_state
from qrevival.circle import (circle_norm_sq, circle_overlap, eval_state,
                             evolve, limit_profile, make_circle_state,
                             revival_structure, time_scales)
from qrevival.husimi import (DensityOperatorMixture, TestFamily,
                             classical_transport, gaussian_mixture_density,
                             husimi_grid, kozlov_limit, make_schedule,
                             pair_classical, pair_profile, pair_sampled,
                             residual_trend_ok, rho_from_classical,
                             transition_grid)
from qrevival.oracles import PhaseGridSpec, read_golden, resolution_residual
from qrevival.params import PhasePoint, PhysicalParams, wrap_position
from qrevival.randombox import (RandomBoxModel, delta_correction, p_xt,
                                time_average_density, uniform_part)
from qrevival.theta import gaussian_overlap, theta

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
L = math.pi


@pytest.fixture
def report(capsys):
    def _r(line):
        with capsys.disabled():
            print(line, flush=True)
    return _r


def _verdict(ok):
    return "PASS" if ok else "FAIL"


# ---------------------------------------------------------------------------
# 1. Modular identity
# ---------------------------------------------------------------------------

def test_criterion_01_modular_identity(report):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(0.2, 5.0), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(-1.4, 1.4), rng.uniform(-0.3, 0.3))
        lhs = theta(z / (1j * tau), 1.0 / tau)
        rhs = np.sqrt(tau) * np.exp(math.pi * z * z / tau) * theta(z, tau)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst < 1e-12
    report(f"criterion 1: {_verdict(ok)} modular identity, 50 draws, "
           f"max rel residual {worst:.2e} (< 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# 2. Dual-engine equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_dual_engine(report):
    worst = 0.0
    n = 2048
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    for domain in ("circle", "box"):
        par = PhysicalParams(0.05 * L, 1.0, 0.05 * L, L)
        ph = PhasePoint(0.3, 1.0)
        state = make_circle_state(par, ph) if domain == "circle" \
            else make_box_state(par, ph)
        scales = time_scales(par, ph.p, domain)
        for t in (0.0, 0.3 * scales.t_cl, 0.7 * scales.t_coll):
            st = evolve(state, t)
            a = np.abs(eval_state(st, x, method="spectral")) ** 2
            b = np.abs(eval_state(st, x, method="image_sum")) ** 2
            worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-10
    report(f"criterion 2: {_verdict(ok)} dual-engine densities, both "
           f"domains, max discrepancy {worst:.2e} (< 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 3. Closed-form overlaps vs quadrature oracles
# ---------------------------------------------------------------------------

def test_criterion_03_overlaps(report):
    worst = 0.0
    for table, kernel in (
            ("line_overlaps.csv", "line"),
            ("circle_overlaps.csv", "circle"),
            ("box_overlaps.csv", "box")):
        _, _, rows = read_golden(os.path.join(GOLDEN, table))
        for row in rows:
            par = PhysicalParams(float(row["hbar"]), float(row["mass"]),
                                 float(row["alpha"]),
                                 float(row.get("half_length", L)))
            a = PhasePoint(float(row["qa"]), float(row["pa"]))
            b = PhasePoint(float(row["qb"]), float(row["pb"]))
            t = float(row["t"])
            want = complex(float(row["overlap_re"]),
                           float(row["overlap_im"]))
            if kernel == "line":
                got = gaussian_overlap(par, a, b, t)
            elif kernel == "circle":
                got = circle_overlap(par, a, b, t)
            else:
                got = box_overlap(par, a, b, t)
            worst = max(worst, abs(got - want))
    ok = worst < 1e-10
    report(f"criterion 3: {_verdict(ok)} closed-form overlaps vs "
           f"quadrature, 20 draws each, max |diff| {worst:.2e} (< 1e-10)")
    assert ok


# ---------------------------------------------------------------------------
# 4. Exact and fractional revivals
# ---------------------------------------------------------------------------

def _box_fold(center, l):
    out = []
    for c in (center, wrap_position(2.0 * l - center, 2.0 * l)):
        if -l <= c <= l and all(abs(c - prev) > 1e-12 for prev in out):
            out.append(c)
    return out


def test_criterion_04_revivals(report):
    # Full revival: |autocorrelation| equals the squared norm.
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    ph = PhasePoint(0.5, 1.4)
    auto_err = abs(abs(circle_overlap(par, ph, ph,
                                      4.0 * L * L / (math.pi * 0.1)))
                   - circle_norm_sq(par, ph))
    auto_err = max(auto_err,
                   abs(abs(box_overlap(par, ph, ph,
                                       16.0 * L * L / (math.pi * 0.1)))
                       - box_norm_sq(par, ph)))
    ok_auto = auto_err < 1e-11

    # Fractional revivals at alpha/l = 0.02.
    parf = PhysicalParams(0.02, 1.0, 0.02 * L, L)
    phf = PhasePoint(0.5, 1.0)
    n = 1024
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    cell = 2.0 * L / n
    ok_frac = True
    for domain in ("circle", "box"):
        state = make_circle_state(parf, phf) if domain == "circle" \
            else make_box_state(parf, phf)
        scales = time_scales(parf, phf.p, domain)
        for frac in (Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)):
            s = revival_structure(frac.numerator, frac.denominator, L)
            dens = np.abs(eval_state(
                evolve(state, float(frac) * scales.t_rev), x)) ** 2
            peaks = [float(x[i]) for i in range(n)
                     if dens[i] > dens[i - 1]
                     and dens[i] >= dens[(i + 1) % n]
                     and dens[i] > 0.2 * dens.max()]
            profile = limit_profile(s, phf, 0.0, 0.0, domain, parf)
            if domain == "circle":
                predicted = sorted(profile.centers)
            else:
                predicted = sorted(
                    q for c in profile.centers for q in _box_fold(c, L))
            ok_frac &= len(peaks) == len(predicted)
            ok_frac &= all(min(abs(pk - pc) for pk in peaks) <= cell
                           for pc in predicted)
    ok = ok_auto and ok_frac
    report(f"criterion 4: {_verdict(ok)} full revival residual "
           f"{auto_err:.2e} (< 1e-11); fractional peak structure "
           f"{'matches' if ok_frac else 'mismatch'} for c in "
           f"{{1/3, 1/2, 1/4}}, both domains")
    assert ok


# ---------------------------------------------------------------------------
# 5. Flattening regime (0, inf)
# ---------------------------------------------------------------------------

def _flattening_sups(n_levels=4):
    base = PhysicalParams(0.05, 1.0, 0.3 * math.sqrt(0.05), L)
    sched = make_schedule(Fraction(0), math.inf, base, n_levels, "circle",
                          p_ref=1.0)
    sups = []
    n = 2048
    x = -L + 2.0 * L / n * (np.arange(n) + 0.5)
    for level in sched.levels:
        state = make_circle_state(level.params, PhasePoint(0.4, 1.0))
        dens = np.abs(eval_state(evolve(state, level.t), x)) ** 2 \
            / state.norm_sq()
        sups.append(float(np.max(np.abs(dens - 1.0 / (2.0 * L)))))
    return sups


def test_criterion_05_flattening(report):
    start = time.time()
    sups = _flattening_sups()
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    below = sups[-1] < 0.05 / (2.0 * L)

    # Box momentum-sign mass split at the finest level.  Sign mixing
    # needs the spread hbar t / (2 m alpha) to exceed the unfolded box,
    # which at desk scale requires a much smaller alpha / hbar ratio
    # than the transition window probed by the sup curve above, so the
    # split uses its own base within the same regime.
    base = PhysicalParams(9.6e-4, 1.0, 0.085, L)
    sched = make_schedule(Fraction(0), math.inf, base, 4, "box", p_ref=1.0)
    level = sched.levels[-1]
    par = level.params
    rho = DensityOperatorMixture(par, "box",
                                 ((1.0, PhasePoint(0.3, 1.0)),)) \
        .evolved(level.t)
    nq, npv = 96, 96
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    p_max = 1.0 + 8.0 * par.hbar / par.alpha
    p = -p_max + 2.0 * p_max / npv * (np.arange(npv) + 0.5)
    vals = husimi_grid(rho, q, p)
    mass_plus = float(np.sum(vals[:, p > 0.0]))
    mass_minus = float(np.sum(vals[:, p < 0.0]))
    frac_plus = mass_plus / (mass_plus + mass_minus)
    ok_split = abs(frac_plus - 0.5) < 0.02
    elapsed = time.time() - start
    ok = decreasing and ok_split and elapsed < 300.0
    sups_txt = ", ".join(f"{s * 2.0 * L:.3f}" for s in sups)
    report(f"criterion 5: {_verdict(ok)} sup flattening strictly "
           f"decreasing [{sups_txt}] (x 2l); box sign split "
           f"{frac_plus:.3f}/{1.0 - frac_plus:.3f} (0.5 +- 0.02); "
           f"{elapsed:.0f}s (< 300s); final-threshold subtest: "
           f"{_verdict(below)} (expected FAIL, see companion test)")
    assert decreasing
    assert ok_split
    assert elapsed < 300.0


@pytest.mark.xfail(
    strict=True,
    reason="a pure state keeps interference zeros, so the sup deviation "
           "from 1/2l is bounded below by about 1/2l at every time; only "
           "weak (test-function) flattening converges")
def test_criterion_05_flattening_threshold():
    sups = _flattening_sups()
    assert sups[-1] < 0.05 / (2.0 * L)


# ---------------------------------------------------------------------------
# 6. Resolution of unity / Husimi normalization
# ---------------------------------------------------------------------------

def test_criterion_06_resolution(report):
    par = PhysicalParams(0.1, 1.0, 0.3, L)
    state = make_circle_state(par, PhasePoint(0.4, 0.5))
    unit = dataclasses.replace(
        state, coefficients=state.coefficients / math.sqrt(state.norm_sq()))
    res = resolution_residual(unit, PhaseGridSpec(nq=256, np_=256,
                                                  p_centers=(0.5,)))
    rho = DensityOperatorMixture(par, "circle",
                                 ((1.0, PhasePoint(0.3, 1.0)),))
    nq, npv = 128, 400
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    spread = 10.0 * par.hbar / par.alpha
    p = 1.0 - spread + 2.0 * spread / npv * (np.arange(npv) + 0.5)
    vals = husimi_grid(rho, q, p)
    mass_err = abs(float(np.sum(vals)) * (2.0 * L / nq)
                   * (2.0 * spread / npv) - 1.0)
    ok = res < 1e-6 and mass_err < 1e-6
    report(f"criterion 6: {_verdict(ok)} reconstruction residual "
           f"{res:.2e} (< 1e-6); Husimi normalization error "
           f"{mass_err:.2e} (< 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Norm limits
# ---------------------------------------------------------------------------

def test_criterion_07_norm_limits(report):
    from qrevival.oracles import (QuadratureSpec, circle_state_callable,
                                  quad_inner)
    spec = QuadratureSpec(subdivisions=16)
    par = PhysicalParams(0.1, 1.0, 0.7, L)
    ph_c = PhasePoint(0.2, 0.4)
    series = circle_norm_sq(par, ph_c)
    f = circle_state_callable(par, ph_c)
    quad = quad_inner(f, f, (-L, L), spec).real
    series_err = abs(series - quad)

    # Both norms tend to 1 along the schedule, monotone over the last 3
    # levels; the box state stays away from (+-l, 0).  Three levels keep
    # the finest deviation ~1e-15, still above double-precision roundoff
    # (another halving of hbar would underflow the deviation to 0).
    base = PhysicalParams(0.3, 1.0, 0.78, L)
    sched = make_schedule(Fraction(0), 0.0, base, 3, "circle", p_ref=1.0)
    dev_c, dev_b = [], []
    for level in sched.levels:
        p = level.params
        dev_c.append(abs(circle_norm_sq(p, PhasePoint(0.2, 0.0)) - 1.0))
        dev_b.append(abs(box_norm_sq(p, PhasePoint(0.0, 0.0)) - 1.0))
    mono_c = all(b < a for a, b in zip(dev_c[-3:], dev_c[-2:]))
    mono_b = all(b < a for a, b in zip(dev_b[-3:], dev_b[-2:]))
    ok = series_err < 1e-12 and mono_c and mono_b \
        and dev_c[-1] < 1e-6 and dev_b[-1] < 1e-6
    report(f"criterion 7: {_verdict(ok)} norm series vs quadrature "
           f"{series_err:.2e} (< 1e-12); |norm^2 - 1| monotone to "
           f"{dev_c[-1]:.2e} (circle) / {dev_b[-1]:.2e} (box)")
    assert ok


# ---------------------------------------------------------------------------
# 8. Theorem dichotomy: convergence vs revival breakdown
# ---------------------------------------------------------------------------

_SIGMA_SPEC = [(1.0, 0.5, 2.0, 0.4, 0.15)]
_P_CENTERS = (1.7, 1.85, 2.0, 2.15, 2.3)


def _pair_grid(fam, q, p, vals, dq, dp):
    return [pair_sampled(fam, idx, q, p, vals, dq, dp)
            for idx in range(fam.size)]


def _husimi_midpoint_grid(rho, nq, p):
    """``husimi_grid(rho, q, p)`` on the midpoint grid of nq positions, as
    sum_i s_i transition_grid(a_i, -t) with s_i = w_i / |a_i|^2, so each
    atom takes the cheaper of the transition engine's two forms."""
    scale = np.array([w for w, _ in rho.atoms]) / rho.atom_norms_sq()
    return sum(s * transition_grid(rho.params, a, -rho.time, rho.domain,
                                   nq, p)
               for s, (_, a) in zip(scale, rho.atoms))


def _husimi_vs_classical(level, fam, atoms_nq, atoms_np_min, husimi_n,
                         classical_np, scale_np=True):
    """Residual between the quantized-transported and classical pairings."""
    par = level.params
    t = level.t
    sigma = gaussian_mixture_density("circle", L, 1.0, _SIGMA_SPEC)
    span = sigma.p_range[1] - sigma.p_range[0]
    if scale_np:
        # Atom momentum spacing must resolve the shear over time t.
        dp_max = (L / fam.J) * par.mass / (3.0 * t)
        natp = max(atoms_np_min, int(math.ceil(span / dp_max)))
    else:
        # Revival-regime times are of order T_rev; scaling the atom
        # count with t is neither affordable nor needed when the curve
        # is only checked for failure to decrease.
        natp = atoms_np_min
    rho = rho_from_classical(sigma, par, nq=atoms_nq, npv=natp).evolved(t)
    nq = husimi_n
    q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
    pw = fam.p_width
    p_lo = min(fam.p_centers) - 4.0 * pw
    p_hi = max(fam.p_centers) + 4.0 * pw
    p = p_lo + (p_hi - p_lo) / nq * (np.arange(nq) + 0.5)
    vals = _husimi_midpoint_grid(rho, nq, p)
    got = _pair_grid(fam, q, p, vals, 2.0 * L / nq, (p_hi - p_lo) / nq)

    moved = classical_transport(sigma, t)
    cq = 256
    qc = -L + 2.0 * L / cq * (np.arange(cq) + 0.5)
    lo, hi = moved.p_range
    pc = lo + (hi - lo) / classical_np * (np.arange(classical_np) + 0.5)
    cvals = moved.evaluate(qc[:, None], pc[None, :])
    want = _pair_grid(fam, qc, pc, cvals, 2.0 * L / cq,
                      (hi - lo) / classical_np)
    return max(abs(a - b) for a, b in zip(got, want))


@pytest.mark.slow
def test_criterion_08_dichotomy(report):
    start = time.time()
    base = PhysicalParams(0.05, 1.0, 0.3 * math.sqrt(0.05), L)
    fam = TestFamily("circle", L, _P_CENTERS, 0.2, J=4)

    # (a) Integrable sigma, regime (0, D=1): converges to its transport.
    sched = make_schedule(Fraction(0), 1.0, base, 4, "circle", p_ref=2.0)
    res_a = [_husimi_vs_classical(lv, fam, 24, 16, 96, 512)
             for lv in sched.levels]
    ok_a = residual_trend_ok(res_a)

    # (b) Single atom: plateaus against the transported delta, converges
    # to the spread profile.
    q0, p0 = 0.5, 2.0
    res_delta, res_prof = [], []
    for level in sched.levels:
        par = level.params
        t = level.t
        rho = DensityOperatorMixture(par, "circle",
                                     ((1.0, PhasePoint(q0, p0)),)) \
            .evolved(t)
        nq = 96
        q = -L + 2.0 * L / nq * (np.arange(nq) + 0.5)
        pw = fam.p_width
        p_lo = min(fam.p_centers) - 4.0 * pw
        p_hi = max(fam.p_centers) + 4.0 * pw
        p = p_lo + (p_hi - p_lo) / nq * (np.arange(nq) + 0.5)
        vals = _husimi_midpoint_grid(rho, nq, p)
        got = _pair_grid(fam, q, p, vals, 2.0 * L / nq, (p_hi - p_lo) / nq)
        q_t = wrap_position(q0 + p0 * t / par.mass, L)
        profile = limit_profile(revival_structure(0, 1, L),
                                PhasePoint(q0, p0), 1.0, -t, "circle", par)
        want_d = [float(fam.value(idx, q_t, p0)) for idx in range(fam.size)]
        want_p = [pair_profile(fam, idx, profile) for idx in range(fam.size)]
        res_delta.append(max(abs(a - b) for a, b in zip(got, want_d)))
        res_prof.append(max(abs(a - b) for a, b in zip(got, want_p)))
    ok_b = (not residual_trend_ok(res_delta)) \
        and residual_trend_ok(res_prof)

    # (c) Regime (1/2, 0): the revival breaks classical correspondence.
    sched_r = make_schedule(Fraction(1, 2), 0.0, base, 3, "circle",
                            p_ref=2.0)
    res_c = [_husimi_vs_classical(lv, fam, 24, 32, 96, 4096,
                                  scale_np=False)
             for lv in sched_r.levels]
    ok_c = not all(b < a for a, b in zip(res_c, res_c[1:]))
    elapsed = time.time() - start
    ok = ok_a and ok_b and ok_c
    report(f"criterion 8: {_verdict(ok)} integrable sigma converges "
           f"[{', '.join(f'{r:.3f}' for r in res_a)}]; single atom "
           f"delta-plateau/profile-convergence "
           f"[{', '.join(f'{r:.2f}' for r in res_delta)}] vs "
           f"[{', '.join(f'{r:.2f}' for r in res_prof)}]; revival regime "
           f"non-decreasing [{', '.join(f'{r:.3f}' for r in res_c)}]; "
           f"{elapsed:.0f}s")
    assert ok_a
    assert ok_b
    assert ok_c


# ---------------------------------------------------------------------------
# 9. Classical (Kozlov) flattening
# ---------------------------------------------------------------------------

def test_criterion_09_kozlov(report):
    sigma = gaussian_mixture_density("circle", L, 1.0, _SIGMA_SPEC)
    fam = TestFamily("circle", L, (2.0,), 0.2, J=2)
    assert fam.size == 5
    limit = kozlov_limit(sigma)
    t = 50.0 * (2.0 * L / 2.0)
    moved = classical_transport(sigma, t)
    worst = 0.0
    for idx in range(fam.size):
        got = pair_classical(fam, idx, moved, nq=256, npv=4096)
        want = pair_classical(fam, idx, limit, nq=256, npv=4096)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst < 0.02
    report(f"criterion 9: {_verdict(ok)} Kozlov flattening at 50 T_cl, "
           f"5 test functions, max residual {worst:.2e} (< 0.02)")
    assert ok


# ---------------------------------------------------------------------------
# 10. Random box
# ---------------------------------------------------------------------------

def test_criterion_10_random_box(report):
    start = time.time()
    par = PhysicalParams(0.05, 1.0, 0.2, 1.0)
    model = RandomBoxModel(par, 1.0, 0.02, kind="coherent", q_rel=0.3,
                           p=1.0)
    x = np.linspace(-1.08, 1.08, 217)
    # P_inf = uniform - Delta, as limitdist writes its columns.
    un = uniform_part(model, x)
    de = delta_correction(model, x)
    pi = un - de
    identity = float(np.max(np.abs(pi + de - un)))
    ok_id = identity < 1e-12

    ta = time_average_density(model, x)
    avg_err = float(np.max(np.abs(ta - pi))) / float(np.max(pi))
    ok_avg = avg_err < 0.01

    eig = RandomBoxModel(par, 1.0, 0.02, kind="eigenstate", eigen_index=4)
    stat = float(np.max(np.abs(p_xt(eig, x, 0.0) - p_xt(eig, x, 777.0))))
    ok_stat = stat < 1e-12

    # Delta weak-pairings decrease along a 3-level semiclassical family.
    xf = np.linspace(-1.08, 1.08, 4321)
    tau = np.cos(math.pi * xf / 1.0)
    pairings = []
    for n in range(3):
        hb = 0.05 * 2.0**-n
        al = 0.2 * math.sqrt(hb / 0.05)
        m_n = RandomBoxModel(PhysicalParams(hb, 1.0, al, 1.0), 1.0, 0.02,
                             kind="coherent", q_rel=0.3, p=1.0)
        de = delta_correction(m_n, xf)
        pairings.append(abs(float(np.trapezoid(de * tau, xf))))
    ok_weak = all(b < a for a, b in zip(pairings, pairings[1:]))
    elapsed = time.time() - start
    ok = ok_id and ok_avg and ok_stat and ok_weak and elapsed < 600.0
    report(f"criterion 10: {_verdict(ok)} limit identity {identity:.1e} "
           f"(< 1e-12); time-average vs limit {avg_err:.2e} (< 0.01); "
           f"eigenstate stationarity {stat:.1e} (< 1e-12); weak pairings "
           f"[{', '.join(f'{p:.2e}' for p in pairings)}] decreasing; "
           f"{elapsed:.0f}s (< 600s)")
    assert ok
