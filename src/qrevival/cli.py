"""Command-line front end: scenario configs, runs, and CSV/JSON emission.

Subcommands
-----------
evolve       position densities |psi(x, t)|^2 for a list of times
revival-map  predicted vs measured fractional-revival peak structure
sweep        residual curves along a semiclassical schedule
husimi       Husimi density of a coherent-state mixture on a phase grid
limitdist    random-box limit densities P_inf / uniform / Delta
verify       self-check suite against the independent oracles

Configuration is a single JSON file (nested key/value); command-line
flags override file values.  Outputs are CSV tables (17 significant
digits, unit-annotated headers) plus a manifest with sha256 checksums,
or a single JSON document mirroring the columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .box import _fold_box, _unfold, make_box_state
from .circle import (circle_norm_sq, circle_overlap, eval_state, evolve,
                     limit_profile, make_circle_state, revival_structure,
                     time_scales, wrap_position)
from .husimi import (DensityOperatorMixture, TestFamily, husimi_grid,
                     make_schedule, pair_profile, pair_sampled,
                     residual_trend_ok, transition_grid)
from .oracles import (PhaseGridSpec, QuadratureSpec, circle_state_callable,
                      quad_inner, resolution_residual)
from .params import (CapacityError, ContractViolation, DomainError,
                     PhasePoint, PhysicalParams, RangeError)
from .randombox import (RandomBoxModel, delta_correction, p_xt,
                        time_average_density, uniform_part)
from .theta import theta

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

OUT_DIR_ENV = "QREVIVAL_OUT_DIR"


class ConfigError(Exception):
    """Invalid or inconsistent scenario configuration."""


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomBoxSpec:
    l_center: float = 1.0
    l_sigma: float = 0.02
    kind: str = "coherent"
    q_rel: float = 0.0
    p: float = 1.0
    eigen_index: int = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-validated run configuration; round-trips through JSON."""

    command: str
    domain: str = "circle"
    hbar: float = 0.05
    mass: float = 1.0
    alpha: float = 0.2
    half_length: float = math.pi
    q: float = 0.0
    p: float = 1.0
    times: tuple[float, ...] = ()
    method: str = "spectral"
    fractions: tuple[str, ...] = ()
    regime_c: str = "0"
    regime_d: str = "0"
    levels: int = 4
    scenario: str = "transition"
    grid: int = 512
    p_grid: int = 64
    family_j: int = 4
    family_p_width: float = 0.2
    include_time_average: bool = False
    random_box: RandomBoxSpec = field(default_factory=RandomBoxSpec)
    tolerances: tuple[tuple[str, float], ...] = ()
    out_dir: str = "."
    format: str = "csv"
    seed: int | None = None

    def params(self) -> PhysicalParams:
        return PhysicalParams(self.hbar, self.mass, self.alpha,
                              self.half_length)

    def phase(self) -> PhasePoint:
        return PhasePoint(self.q, self.p)


_TOP_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}
_RB_KEYS = {f.name for f in dataclasses.fields(RandomBoxSpec)}


def parse_config(data: dict, command: str | None = None) -> ScenarioConfig:
    """Validate a raw config mapping; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    kw = dict(data)
    if command is not None:
        kw["command"] = command
    if "command" not in kw:
        raise ConfigError("missing field 'command'")
    rb = kw.get("random_box", {})
    if isinstance(rb, RandomBoxSpec):
        pass
    elif isinstance(rb, dict):
        bad = set(rb) - _RB_KEYS
        if bad:
            raise ConfigError(
                f"random_box: unknown keys: {', '.join(sorted(bad))}")
        kw["random_box"] = RandomBoxSpec(**rb)
    else:
        raise ConfigError("random_box must be a mapping")
    for name in ("times", "fractions"):
        if name in kw:
            kw[name] = tuple(kw[name])
    if "tolerances" in kw:
        tol = kw["tolerances"]
        if isinstance(tol, dict):
            kw["tolerances"] = tuple(sorted(tol.items()))
        else:
            kw["tolerances"] = tuple((str(k), float(v)) for k, v in tol)
    try:
        cfg = ScenarioConfig(**kw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _validate(cfg)
    return cfg


def emit_config(cfg: ScenarioConfig) -> dict:
    """Serialize a config to a JSON-compatible mapping.

    ``parse_config(emit_config(cfg))`` reproduces ``cfg`` exactly.
    """
    out = dataclasses.asdict(cfg)
    out["times"] = list(cfg.times)
    out["fractions"] = list(cfg.fractions)
    out["tolerances"] = [[k, v] for k, v in cfg.tolerances]
    return out


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.command not in ("evolve", "revival-map", "sweep", "husimi",
                           "limitdist", "verify"):
        raise ConfigError(f"command: unknown command {cfg.command!r}")
    if cfg.domain not in ("circle", "box"):
        raise ConfigError(f"domain: must be 'circle' or 'box', "
                          f"got {cfg.domain!r}")
    for name in ("hbar", "mass", "alpha", "half_length"):
        if not getattr(cfg, name) > 0.0:
            raise ConfigError(f"{name}: must be positive")
    if cfg.method not in ("spectral", "image_sum", "both"):
        raise ConfigError(f"method: unknown method {cfg.method!r}")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format: must be 'csv' or 'json'")
    if cfg.grid < 8:
        raise ConfigError("grid: must be at least 8")
    if cfg.command == "evolve" and not cfg.times:
        raise ConfigError("times: at least one evolution time is required")
    if cfg.command == "revival-map":
        if not cfg.fractions:
            raise ConfigError("fractions: at least one fraction required")
        for s in cfg.fractions:
            num, _, den = s.partition("/")
            try:
                mm, nn = int(num), int(den if den else "1")
            except ValueError:
                raise ConfigError(f"fractions: cannot parse {s!r}")
            if nn <= 0 or mm < 0:
                raise ConfigError(f"fractions: {s!r} not a valid fraction")
            if math.gcd(mm, nn) != 1:
                raise ConfigError(
                    f"fractions: {s!r} is not reduced; divide by "
                    f"{math.gcd(mm, nn)}")
    if cfg.command == "sweep":
        # The sweep verdict needs a trend over at least 4 residuals.
        if cfg.levels < 4:
            raise ConfigError("levels: sweeps need at least 4 levels")
        if cfg.scenario not in ("transition", "point"):
            raise ConfigError(f"scenario: unknown scenario {cfg.scenario!r}")
        if cfg.family_j < 0:
            raise ConfigError("family_j: must be non-negative")
        if cfg.domain == "box" and abs(cfg.p) < 4.0 * cfg.family_p_width:
            # The windows p +- 4 p_width and its mirror would overlap
            # and count their common momenta twice.
            raise ConfigError("p: box sweeps need |p| >= 4 family_p_width")
        _parse_regime(cfg)


def _parse_regime(cfg: ScenarioConfig) -> tuple[Fraction, float]:
    try:
        c = Fraction(cfg.regime_c)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"regime_c: {exc}")
    if cfg.regime_d in ("inf", "Infinity"):
        d = math.inf
    else:
        try:
            d = float(cfg.regime_d)
        except ValueError as exc:
            raise ConfigError(f"regime_d: {exc}")
    if d < 0.0:
        raise ConfigError("regime_d: must be non-negative")
    return c, d


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.16e}"


@dataclass
class OutputTable:
    name: str
    columns: list[str]
    rows: list[list]


def _csv_payload(table: OutputTable) -> str:
    """CSV text of a table, each cell as ``_fmt`` writes it.

    The format is chosen once per column: a column of floats only
    (``float`` or ``np.floating``) is written by ``%.16e``, which is
    ``_fmt``'s float format; any other column is converted by ``_fmt``
    and written by ``%s``.  Each row is then one ``%`` operation.
    """
    cols = list(zip(*table.rows))
    specs = []
    for i, col in enumerate(cols):
        if all(isinstance(v, (float, np.floating)) for v in col):
            specs.append("%.16e")
        else:
            specs.append("%s")
            cols[i] = [_fmt(v) for v in col]
    row_fmt = ",".join(specs)
    lines = [",".join(table.columns)]
    lines.extend(row_fmt % row for row in zip(*cols))
    return "\n".join(lines) + "\n"


class Emitter:
    """Writes tables and the run manifest; owns the only mutable state."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.tables: list[OutputTable] = []
        env = os.environ.get(OUT_DIR_ENV)
        self.out_dir = cfg.out_dir if cfg.out_dir != "." or env is None \
            else env

    def add(self, name: str, columns: list[str], rows: list[list]) -> None:
        self.tables.append(OutputTable(name, columns, rows))

    def flush(self) -> list[str]:
        os.makedirs(self.out_dir, exist_ok=True)
        written = []
        manifest = {
            "artifact_version": __version__,
            "config": emit_config(self.cfg),
            "outputs": [],
        }
        if self.cfg.format == "json":
            doc = {"manifest": manifest, "tables": {}}
            for t in self.tables:
                doc["tables"][t.name] = {
                    "columns": t.columns,
                    "rows": [[_jsonable(v) for v in row] for row in t.rows],
                }
                manifest["outputs"].append(
                    {"table": t.name, "columns": t.columns})
            path = os.path.join(self.out_dir, "result.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return [path]
        for t in self.tables:
            path = os.path.join(self.out_dir, t.name + ".csv")
            payload = _csv_payload(t).encode()
            with open(path, "wb") as fh:
                fh.write(payload)
            manifest["outputs"].append({
                "file": t.name + ".csv",
                "columns": t.columns,
                "sha256": hashlib.sha256(payload).hexdigest(),
            })
            written.append(path)
        mpath = os.path.join(self.out_dir, "manifest.json")
        with open(mpath, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(mpath)
        return written


def _jsonable(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def verify_manifest(out_dir: str) -> bool:
    """Re-hash every listed output file against the manifest."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    for entry in manifest["outputs"]:
        if "file" not in entry:
            continue
        with open(os.path.join(out_dir, entry["file"]), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                return False
    return True


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _make_state(cfg: ScenarioConfig):
    params = cfg.params()
    if cfg.domain == "circle":
        return make_circle_state(params, cfg.phase())
    return make_box_state(params, cfg.phase())


def cmd_evolve(cfg: ScenarioConfig, emitter: Emitter) -> int:
    params = cfg.params()
    l = params.half_length
    state = _make_state(cfg)
    nrm = state.norm_sq()
    x = -l + 2.0 * l / cfg.grid * (np.arange(cfg.grid) + 0.5)
    columns = ["x (length)"]
    data = [x]
    for i, t in enumerate(cfg.times):
        st = evolve(state, t)
        if cfg.method in ("spectral", "both"):
            dens_s = np.abs(eval_state(st, x, method="spectral")) ** 2 / nrm
        if cfg.method in ("image_sum", "both"):
            dens_i = np.abs(eval_state(st, x, method="image_sum")) ** 2 / nrm
        dens = dens_s if cfg.method != "image_sum" else dens_i
        columns.append(f"density_t{i} (1/length)")
        data.append(dens)
        if cfg.method == "both":
            columns.append(f"discrepancy_t{i} (1/length)")
            data.append(np.abs(dens_s - dens_i))
    rows = [list(r) for r in zip(*data)]
    emitter.add("density", columns, rows)
    return EXIT_OK


def cmd_revival_map(cfg: ScenarioConfig, emitter: Emitter) -> int:
    params = cfg.params()
    l = params.half_length
    state = _make_state(cfg)
    nrm = state.norm_sq()
    scales = time_scales(params, cfg.p, cfg.domain)
    x = -l + 2.0 * l / cfg.grid * (np.arange(cfg.grid) + 0.5)
    cell = 2.0 * l / cfg.grid
    rows = []
    for s in cfg.fractions:
        num, _, den = s.partition("/")
        frac = Fraction(int(num), int(den if den else "1"))
        structure = revival_structure(frac.numerator, frac.denominator, l)
        t = float(frac) * scales.t_rev
        dens = np.abs(eval_state(evolve(state, t), x)) ** 2 / nrm
        peaks = _find_peaks(x, dens)
        profile = limit_profile(structure, cfg.phase(), 0.0, 0.0,
                                cfg.domain, params)
        predicted = _fold_centers(profile, cfg.domain, l)
        match = len(peaks) == len(predicted) and all(
            min(abs(pk - pc) for pc in predicted) <= cell
            for pk in peaks)
        for j, pk in enumerate(sorted(peaks)):
            rows.append([s, float(frac), structure.n_prime, structure.a,
                         len(peaks), j,
                         predicted[j] if j < len(predicted) else math.nan,
                         pk, match])
    emitter.add("revival_map",
                ["fraction", "t_over_t_rev", "predicted_peaks (count)",
                 "offset_a (length)", "measured_peaks (count)",
                 "peak_index", "predicted_q (length)", "measured_q (length)",
                 "match"], rows)
    return EXIT_OK


def _fold_centers(profile, domain: str, l: float) -> list[float]:
    """Predicted centers in the fundamental circle or box domain, sorted.

    Each box center folds from the doubled circle onto one box point;
    centers that fold onto the same point count once.
    """
    if domain == "box":
        q = _fold_box(np.array(profile.centers) - l, l)[0]
        return sorted({round(float(c), 12) for c in q})
    return sorted(profile.centers)


def _find_peaks(x: np.ndarray, dens: np.ndarray) -> list[float]:
    """Local maxima above 20% of the global maximum (periodic ends)."""
    n = len(dens)
    top = float(np.max(dens))
    out = []
    for i in range(n):
        a, b, c = dens[i - 1], dens[i], dens[(i + 1) % n]
        if b > a and b >= c and b > 0.2 * top:
            out.append(float(x[i]))
    return out


def cmd_sweep(cfg: ScenarioConfig, emitter: Emitter) -> int:
    c, d = _parse_regime(cfg)
    params = cfg.params()
    l = params.half_length
    schedule = make_schedule(c, d, params, cfg.levels, cfg.domain,
                             p_ref=cfg.p)
    family = TestFamily(cfg.domain, l, (cfg.p,), cfg.family_p_width,
                        J=cfg.family_j)
    if cfg.scenario == "transition":
        residuals = []
        for level in schedule.levels:
            residuals.append(_transition_residual(cfg, level, c, d, family))
        verdict = residual_trend_ok(residuals)
        rows = [[n, lv.params.hbar, lv.params.alpha, lv.t, r, verdict]
                for n, (lv, r) in enumerate(zip(schedule.levels, residuals))]
        emitter.add("sweep",
                    ["level", "hbar (action)", "alpha (length)", "t (time)",
                     "residual", "verdict"], rows)
        return EXIT_OK
    res_delta, res_prof = [], []
    for level in schedule.levels:
        rd, rp = _point_residuals(cfg, level, c, d, family)
        res_delta.append(rd)
        res_prof.append(rp)
    v_delta = residual_trend_ok(res_delta)
    v_prof = residual_trend_ok(res_prof)
    rows = [[n, lv.params.hbar, lv.params.alpha, lv.t, rd, v_delta, rp,
             v_prof]
            for n, (lv, rd, rp) in enumerate(
                zip(schedule.levels, res_delta, res_prof))]
    emitter.add("sweep",
                ["level", "hbar (action)", "alpha (length)", "t (time)",
                 "residual_delta", "verdict_delta", "residual_profile",
                 "verdict_profile"], rows)
    return EXIT_OK


def _sweep_profile(cfg: ScenarioConfig, level, c: Fraction, d: float):
    par = level.params
    l = par.half_length
    structure = revival_structure(c.numerator, c.denominator, l)
    scales = time_scales(par, cfg.p, cfg.domain)
    offset = level.t - float(c) * scales.t_rev
    return limit_profile(structure, cfg.phase(), d, -offset, cfg.domain, par)


def _sweep_p_nodes(cfg: ScenarioConfig) -> np.ndarray:
    """Momentum nodes of a sweep's grids: the midpoints of the window
    p +- 4 p_width, and in the box also their mirror images -p.

    Box coherent states at (q, p) and (q, -p) are distinct, and the
    packet changes sheet at each wall, so the box pairs both momentum
    windows; its family's momentum factors are even in p.
    """
    pw = cfg.family_p_width
    p_nodes = cfg.p - 4.0 * pw + 8.0 * pw / cfg.p_grid \
        * (np.arange(cfg.p_grid) + 0.5)
    if cfg.domain == "box":
        p_nodes = np.concatenate([-p_nodes[::-1], p_nodes])
    return p_nodes


def _transition_residual(cfg: ScenarioConfig, level, c: Fraction, d: float,
                         family: TestFamily) -> float:
    par = level.params
    l = par.half_length
    nq = cfg.grid
    p_nodes = _sweep_p_nodes(cfg)
    grid = transition_grid(par, cfg.phase(), level.t, cfg.domain, nq,
                           p_nodes)
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    profile = _sweep_profile(cfg, level, c, d)
    got = pair_sampled(family, range(family.size), q, p_nodes, grid,
                       2.0 * l / nq, 8.0 * cfg.family_p_width / cfg.p_grid)
    want = np.array([pair_profile(family, idx, profile)
                     for idx in range(family.size)])
    return float(np.max(np.abs(got - want)))


def _point_residuals(cfg: ScenarioConfig, level, c: Fraction, d: float,
                     family: TestFamily) -> tuple[float, float]:
    par = level.params
    l = par.half_length
    rho = DensityOperatorMixture(par, cfg.domain,
                                 ((1.0, cfg.phase()),)).evolved(level.t)
    nq = min(cfg.grid, 128)
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    p_nodes = _sweep_p_nodes(cfg)
    grid = husimi_grid(rho, q, p_nodes)
    # The transported delta: free motion on the circle; in the box, free
    # motion on the doubled circle folded back onto its sheet.
    if cfg.domain == "circle":
        q_t = wrap_position(cfg.q + cfg.p * level.t / par.mass, l)
    else:
        q_unf, p_unf = _unfold(cfg.q, cfg.p, l)
        q_t = float(_fold_box(q_unf + p_unf * level.t / par.mass, l)[0])
    profile = _sweep_profile(cfg, level, c, d)
    idx = range(family.size)
    got = pair_sampled(family, idx, q, p_nodes, grid, 2.0 * l / nq,
                       8.0 * cfg.family_p_width / cfg.p_grid)
    want_delta = np.array([family.value(i, q_t, cfg.p) for i in idx])
    want_prof = np.array([pair_profile(family, i, profile) for i in idx])
    return (float(np.max(np.abs(got - want_delta))),
            float(np.max(np.abs(got - want_prof))))


def cmd_husimi(cfg: ScenarioConfig, emitter: Emitter) -> int:
    params = cfg.params()
    l = params.half_length
    t = cfg.times[0] if cfg.times else 0.0
    rho = DensityOperatorMixture(params, cfg.domain,
                                 ((1.0, cfg.phase()),)).evolved(t)
    q = -l + 2.0 * l / cfg.grid * (np.arange(cfg.grid) + 0.5)
    spread = 4.0 * params.hbar / params.alpha
    p = cfg.p - spread + 2.0 * spread / cfg.p_grid \
        * (np.arange(cfg.p_grid) + 0.5)
    vals = husimi_grid(rho, q, p)
    rows = []
    for i in range(len(q)):
        for j in range(len(p)):
            rows.append([q[i], p[j], vals[i, j]])
    emitter.add("husimi",
                ["q (length)", "p (momentum)", "husimi (1/action)"], rows)
    return EXIT_OK


def cmd_limitdist(cfg: ScenarioConfig, emitter: Emitter) -> int:
    rb = cfg.random_box
    model = RandomBoxModel(cfg.params(), rb.l_center, rb.l_sigma,
                           kind=rb.kind, q_rel=rb.q_rel, p=rb.p,
                           eigen_index=rb.eigen_index)
    lo, hi = model.support
    x = np.linspace(-hi, hi, cfg.grid)
    un = uniform_part(model, x)
    de = delta_correction(model, x)
    # The expression p_inf(method="spectral") evaluates, without
    # computing both parts again.
    pi = un - de
    columns = ["x (length)", "p_inf (1/length)", "uniform (1/length)",
               "delta (1/length)"]
    data = [x, pi, un, de]
    for i, t in enumerate(cfg.times):
        columns.append(f"p_xt_t{i} (1/length)")
        data.append(p_xt(model, x, t))
    if cfg.include_time_average:
        columns.append("time_average (1/length)")
        data.append(time_average_density(model, x))
    rows = [list(r) for r in zip(*data)]
    emitter.add("limitdist", columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _default_tolerances() -> dict:
    return {
        "modular_identity": 1e-12,
        "dual_engine": 1e-10,
        "overlap_quadrature": 1e-10,
        "norm_series": 1e-12,
        "resolution_of_unity": 1e-6,
        "husimi_normalization": 1e-6,
    }


def _check_modular_identity(rng: np.random.Generator) -> float:
    worst = 0.0
    for _ in range(50):
        tau = complex(rng.uniform(0.2, 5.0), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.3, 0.3))
        lhs = theta(z / (1j * tau), 1.0 / tau)
        rhs = np.sqrt(tau) * np.exp(math.pi * z * z / tau) * theta(z, tau)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _check_dual_engine() -> float:
    worst = 0.0
    for domain in ("circle", "box"):
        par = PhysicalParams(0.05 * math.pi, 1.0, 0.05 * math.pi, math.pi)
        phase = PhasePoint(0.3, 1.0)
        state = make_circle_state(par, phase) if domain == "circle" \
            else make_box_state(par, phase)
        scales = time_scales(par, phase.p, domain)
        x = np.linspace(-math.pi, math.pi, 512, endpoint=False)
        for t in (0.0, 0.3 * scales.t_cl):
            st = evolve(state, t)
            a = np.abs(eval_state(st, x, method="spectral")) ** 2
            b = np.abs(eval_state(st, x, method="image_sum")) ** 2
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def _check_overlap_quadrature() -> float:
    par = PhysicalParams(0.1, 1.0, 0.3, math.pi)
    a = PhasePoint(0.4, 1.2)
    b = PhasePoint(-0.9, 0.7)
    t = 0.8
    spec = QuadratureSpec()
    closed = circle_overlap(par, a, b, t)
    fa = circle_state_callable(par, a, 0.0)
    fb = circle_state_callable(par, b, t)
    quad = quad_inner(fa, fb, (-math.pi, math.pi), spec)
    return abs(closed - quad)


def _check_norm_series() -> float:
    spec = QuadratureSpec()
    worst = 0.0
    par = PhysicalParams(0.1, 1.0, 0.4, math.pi)
    for phase in (PhasePoint(0.2, 1.0), PhasePoint(-1.0, 0.4)):
        series = circle_norm_sq(par, phase)
        f = circle_state_callable(par, phase, 0.0)
        quad = quad_inner(f, f, (-math.pi, math.pi), spec).real
        worst = max(worst, abs(series - quad) / quad)
    return worst


def _check_resolution() -> float:
    par = PhysicalParams(0.1, 1.0, 0.3, math.pi)
    state = make_circle_state(par, PhasePoint(0.4, 0.5))
    unit = dataclasses.replace(
        state, coefficients=state.coefficients / math.sqrt(state.norm_sq()))
    return resolution_residual(unit,
                               PhaseGridSpec(nq=256, np_=256,
                                             p_centers=(0.5,)))


def _check_husimi_normalization() -> float:
    par = PhysicalParams(0.1, 1.0, 0.3, math.pi)
    rho = DensityOperatorMixture(par, "circle", ((1.0, PhasePoint(0.3, 1.0)),))
    l = par.half_length
    nq = 128
    q = -l + 2.0 * l / nq * (np.arange(nq) + 0.5)
    spread = 10.0 * par.hbar / par.alpha
    npv = 400
    p = 1.0 - spread + 2.0 * spread / npv * (np.arange(npv) + 0.5)
    vals = husimi_grid(rho, q, p)
    mass = float(np.sum(vals)) * (2.0 * l / nq) * (2.0 * spread / npv)
    return abs(mass - 1.0)


def cmd_verify(cfg: ScenarioConfig, emitter: Emitter) -> int:
    tols = _default_tolerances()
    for name, value in cfg.tolerances:
        if name not in tols:
            raise ConfigError(f"tolerances: unknown check {name!r}")
        tols[name] = value
    rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 20260823)
    checks = {
        "modular_identity": lambda: _check_modular_identity(rng),
        "dual_engine": _check_dual_engine,
        "overlap_quadrature": _check_overlap_quadrature,
        "norm_series": _check_norm_series,
        "resolution_of_unity": _check_resolution,
        "husimi_normalization": _check_husimi_normalization,
    }
    rows = []
    failures = []
    for name, fn in checks.items():
        residual = float(fn())
        ok = residual < tols[name]
        rows.append([name, residual, tols[name], ok])
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name}: residual {residual:.3e} "
              f"(tolerance {tols[name]:.3e})")
        if not ok:
            failures.append(name)
    emitter.add("verify", ["check", "residual", "tolerance", "pass"], rows)
    if failures:
        print("failed checks: " + ", ".join(failures), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "evolve": cmd_evolve,
    "revival-map": cmd_revival_map,
    "sweep": cmd_sweep,
    "husimi": cmd_husimi,
    "limitdist": cmd_limitdist,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrevival",
        description="Wave-packet collapse/revival simulator on compact "
                    "domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON scenario configuration file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid", type=int, default=None,
                       help="position grid size")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = {}
        if args.config is not None:
            with open(args.config) as fh:
                data = json.load(fh)
        if args.out is not None:
            data["out_dir"] = args.out
        if args.grid is not None:
            data["grid"] = args.grid
        if args.format is not None:
            data["format"] = args.format
        cfg = parse_config(data, command=args.command)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    emitter = Emitter(cfg)
    try:
        code = _COMMANDS[cfg.command](cfg, emitter)
    except (ConfigError, DomainError, ContractViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapacityError, RangeError) as exc:
        print(f"numeric capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    emitter.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
