"""The benchmark's workloads: seeded inputs, one timed iteration, checks.

Every workload drives qrevival only through its public functions and the
``qrevival.cli.main`` entry point, looked up at call time so that the
tracer's wrappers are seen.  The seed moves positions only (packet q
labels, the classical density's q centre, ``q_rel``, theta's z and the
check sample points); momenta, widths, hbar and grids stay fixed, so
every mode window and image window keeps its size from seed to seed.

Each workload is built in ``__init__`` (the set-up that ``setup_s``
times), lists its operations in ``operations()``, digests their outputs
for the determinism and byte-identity checks, and checks them against
tolerances the package already documents.  Checks run outside the timed
region.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import qrevival as qr
from qrevival import cli, oracles

# Tolerances `qrevival verify` applies by default.
TOL_DUAL_ENGINE = 1e-10
TOL_OVERLAP_QUADRATURE = 1e-10
# Acceptance criterion 10: the limit identity P_inf + Delta = uniform
# holds to 1e-12, and the long-time average is within 1% of max P_inf.
TOL_LIMIT_IDENTITY = 1e-12
TOL_TIME_AVERAGE_REL = 0.01

L = math.pi


class OperationFailed(RuntimeError):
    """An operation returned a failure status instead of raising."""


@dataclass
class CheckResult:
    """Outcome of a workload's output checks.

    ``ratios`` maps each check to its worst residual over its tolerance;
    ``failed`` names the operations whose outputs failed a check.
    """

    ratios: dict[str, float] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)
    long_time_err: float | None = None

    def record(self, op: str, check: str, ratio: float) -> None:
        self.ratios[check] = max(self.ratios.get(check, 0.0), ratio)
        if not ratio <= 1.0:
            self.failed.add(op)

    def require(self, op: str, ok: bool) -> None:
        if not ok:
            self.failed.add(op)

    @property
    def err_over_tol(self) -> float:
        return max(self.ratios.values(), default=0.0)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _dir_digest(path: str) -> tuple[str, int]:
    """sha256 over the names and bytes of every file in ``path``."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _read_csv(path: str) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def _floats(values: list[str]) -> np.ndarray:
    return np.array([float(v) for v in values])


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (hi - lo) / n * (np.arange(n) + 0.5)


class Workload:
    """Base class: subclasses set ``name`` and implement the hooks."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.descriptors: dict = {}

    def operations(self):
        """List of (name, callable); each callable returns the output."""
        raise NotImplementedError

    def digest(self, op: str, output) -> tuple[str, int]:
        """(sha256, bytes written) of one operation's output."""
        raise NotImplementedError

    def check(self, outputs: dict) -> CheckResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# husimi_revival
# ---------------------------------------------------------------------------

P_CENTERS = (1.7, 1.85, 2.0, 2.15, 2.3)
P_WIDTH = 0.2


def state_callable(params, domain: str, phase, t: float):
    """Time-t coherent state as a callable, for ``oracles.quad_inner``."""
    if domain == "circle":
        return oracles.circle_state_callable(params, phase, t)
    l = params.half_length
    b = qr.box.box_coefficients(params, phase)
    k = np.arange(1, len(b) + 1)
    bk = b * np.exp(-1j * params.hbar * t * (math.pi * k / (2.0 * l)) ** 2
                    / (2.0 * params.mass))

    def fn(x):
        x = np.asarray(x, dtype=float)
        return (np.sin(math.pi * np.outer(x - l, k) / (2.0 * l)) @ bk) \
            / math.sqrt(l)

    return fn


@dataclass(frozen=True)
class HusimiCase:
    domain: str
    params: object
    t: float
    sigma: object
    family: object
    atom_grid: tuple[int, int]
    q: np.ndarray
    p: np.ndarray
    cq: np.ndarray
    cp: np.ndarray
    samples: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class HusimiOutput:
    rho: object
    values: np.ndarray
    residual: float


class HusimiRevival(Workload):
    """Acceptance criterion 8(c), level 0, on the circle and in the box.

    A classical Gaussian density is quantized into a coherent-state
    mixture, evolved to half the revival time, and its Husimi density
    is paired with a test family next to the transported classical
    density.  gamma is about 700 on the circle and 2800 in the box.
    """

    name = "husimi_revival"
    ATOMS = {"circle": (6, 6), "box": (4, 4)}
    GRID = 48
    CLASSICAL_GRID = (128, 256)
    SAMPLES = 6

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        base = qr.PhysicalParams(0.05, 1.0, 0.3 * math.sqrt(0.05), L)
        p_lo = min(P_CENTERS) - 4.0 * P_WIDTH
        p_hi = max(P_CENTERS) + 4.0 * P_WIDTH
        self.cases = {}
        for domain, atom_grid in self.ATOMS.items():
            level = qr.make_schedule(Fraction(1, 2), 0.0, base, 3, domain,
                                     p_ref=2.0).levels[0]
            q0 = float(self.rng.uniform(-0.5 * L, 0.5 * L))
            sigma = qr.gaussian_mixture_density(
                domain, L, 1.0, [(1.0, q0, 2.0, 0.4, 0.15)])
            n_atoms = atom_grid[0] * atom_grid[1]
            samples = tuple(
                (int(self.rng.integers(self.GRID)),
                 int(self.rng.integers(self.GRID)),
                 int(self.rng.integers(n_atoms)))
                for _ in range(self.SAMPLES))
            case = HusimiCase(
                domain, level.params, level.t, sigma,
                qr.TestFamily(domain, L, P_CENTERS, P_WIDTH, J=4), atom_grid,
                _midpoints(-L, L, self.GRID), _midpoints(p_lo, p_hi, self.GRID),
                _midpoints(-L, L, self.CLASSICAL_GRID[0]),
                _midpoints(p_lo, p_hi, self.CLASSICAL_GRID[1]), samples)
            self.cases[domain] = case
            par = level.params
            self.descriptors[domain] = {
                "atoms": n_atoms,
                "husimi_grid_points": self.GRID * self.GRID,
                "classical_grid_points": self.CLASSICAL_GRID[0]
                * self.CLASSICAL_GRID[1],
                "modes_per_atom": len(
                    qr.make_circle_state(par, qr.PhasePoint(0.0, 2.0))
                    .coefficients if domain == "circle"
                    else qr.box.box_coefficients(par, qr.PhasePoint(0.0, 2.0))),
                "gamma": par.gamma(level.t),
                "q0": q0,
            }

    def operations(self):
        return [(d, lambda c=c: self._pipeline(c))
                for d, c in self.cases.items()]

    @staticmethod
    def _pipeline(case: HusimiCase) -> HusimiOutput:
        # Both sides are paired on the same positive-p window, so in the
        # box the comparison is restricted to p > 0 on each side alike.
        fam = case.family
        nq, npv = case.atom_grid
        rho = qr.rho_from_classical(case.sigma, case.params, nq=nq,
                                    npv=npv).evolved(case.t)
        vals = qr.husimi_grid(rho, case.q, case.p)
        dq, dp = case.q[1] - case.q[0], case.p[1] - case.p[0]
        got = [qr.pair_sampled(fam, i, case.q, case.p, vals, dq, dp)
               for i in range(fam.size)]
        moved = qr.classical_transport(case.sigma, case.t)
        cvals = moved.evaluate(case.cq[:, None], case.cp[None, :])
        cdq, cdp = case.cq[1] - case.cq[0], case.cp[1] - case.cp[0]
        want = [qr.pair_sampled(fam, i, case.cq, case.cp, cvals, cdq, cdp)
                for i in range(fam.size)]
        residual = max(abs(a - b) for a, b in zip(got, want))
        return HusimiOutput(rho, vals, residual)

    def digest(self, op, output):
        return _sha(output.values.tobytes(), repr(output.residual).encode()), 0

    def check(self, outputs):
        """Absolute overlap error at sampled (q, p, atom) triples.

        The Husimi density of the single-atom mixture gives |overlap|;
        the oracle integrates the two states by composite quadrature.
        Absolute error is used because sampled Husimi values can be
        ~1e-26, where relative error says nothing about the overlap.
        """
        result = CheckResult()
        for domain, case in self.cases.items():
            out = outputs.get(domain)
            if out is None:
                continue
            result.require(domain, bool(np.all(np.isfinite(out.values))
                                        and np.all(out.values >= 0.0)))
            par = case.params
            for qi, pj, ai in case.samples:
                _, atom = out.rho.atoms[ai % len(out.rho.atoms)]
                single = qr.DensityOperatorMixture(par, domain, ((1.0, atom),),
                                                   out.rho.time)
                here = qr.PhasePoint(float(case.q[qi]), float(case.p[pj]))
                h = qr.husimi(single, here)
                norm = float(single.atom_norms_sq()[0])
                ov = math.sqrt(max(h, 0.0) * 2.0 * math.pi * par.hbar * norm)
                quad = abs(oracles.quad_inner(
                    state_callable(par, domain, here, 0.0),
                    state_callable(par, domain, atom, out.rho.time), (-L, L)))
                result.record(domain, "overlap_quadrature",
                              abs(ov - quad) / TOL_OVERLAP_QUADRATURE)
        return result


# ---------------------------------------------------------------------------
# cli_scenarios
# ---------------------------------------------------------------------------

def _cli(command: str, config: str, out: str) -> str:
    code = cli.main([command, "--config", config, "--out", out])
    if code != 0:
        raise OperationFailed(f"qrevival {command} exited with code {code}")
    return out


def _theta_batch(z: complex, taus: tuple[complex, ...]) -> np.ndarray:
    return np.array([qr.theta(z, tau) for tau in taus])


class CliScenarios(Workload):
    """Position-space subcommands on fixed configs, run in-process.

    Covers the image engine at small gamma (``evolve`` with both
    methods), a dense spectral basis (about 6.3k modes x 2048 points),
    evolution to 1000 T_rev, fractional revivals in the box, small-gamma
    transition and Husimi grids (``sweep``, ``husimi``), the self-check
    suite, and direct theta calls up to Im tau ~ 500.
    """

    name = "cli_scenarios"
    THETA_RE = 0.05
    THETA_IM = tuple(0.5 + 2.0 * k for k in range(0, 251, 5))

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        u = self.rng.uniform
        t_rev_long = qr.time_scales(qr.PhysicalParams(5e-5, 1.0, 0.05, L),
                                    1.0, "circle").t_rev
        short = [0.0, 0.6, 1.7, 3.1]
        self.configs = {
            "evolve_circle": ("evolve", {
                "domain": "circle", "hbar": 0.05, "alpha": 0.2,
                "q": u(-2.5, 2.5), "p": 1.0, "times": short,
                "method": "both", "grid": 1024}),
            "evolve_box": ("evolve", {
                "domain": "box", "hbar": 0.05, "alpha": 0.2,
                "q": u(-2.5, 2.5), "p": 1.0, "times": short,
                "method": "both", "grid": 1024}),
            "evolve_dense": ("evolve", {
                "domain": "circle", "hbar": 1e-3, "alpha": 0.002,
                "q": u(-2.5, 2.5), "p": 1.0, "times": [0.37], "grid": 2048}),
            "evolve_long": ("evolve", {
                "domain": "circle", "hbar": 5e-5, "alpha": 0.05,
                "q": u(-2.5, 2.5), "p": 1.0,
                "times": [0.0, 1000.0 * t_rev_long], "grid": 1024}),
            # Positions in [0.35, 0.7] keep the predicted peaks of the
            # 1/3, 1/2 and 1/4 revivals apart; near q = 0 and q = l/3
            # mirrored copies merge and the peak count cannot match.
            "revival_map_box": ("revival-map", {
                "domain": "box", "hbar": 0.02, "alpha": 0.0628,
                "q": u(0.35, 0.7), "p": 1.0,
                "fractions": ["1/3", "1/2", "1/4"], "grid": 1024}),
            "sweep_transition": ("sweep", {
                "domain": "circle", "regime_c": "0", "regime_d": "1",
                "scenario": "transition", "q": u(-2.5, 2.5),
                "grid": 2048, "p_grid": 128}),
            "sweep_point": ("sweep", {
                "domain": "circle", "regime_c": "0", "regime_d": "1",
                "scenario": "point", "q": u(-2.5, 2.5)}),
            "husimi_box": ("husimi", {
                "domain": "box", "hbar": 0.05, "alpha": 0.2,
                "q": u(-2.5, 2.5), "p": 1.0, "times": [1.5],
                "grid": 128, "p_grid": 64}),
            "verify": ("verify", {}),
        }
        self.paths = {}
        for op, (command, data) in self.configs.items():
            path = os.path.join(workdir, "configs", op + ".json")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(data, fh)
            # Parse as the CLI will, so a bad config fails at set-up.
            cli.parse_config(dict(data), command=command)
            self.paths[op] = (command, path,
                              os.path.join(workdir, "out", op))
        self.theta_z = complex(u(-0.5, 0.5), u(-0.1, 0.1))
        self.theta_taus = tuple(complex(self.THETA_RE, im)
                                for im in self.THETA_IM)
        for op, (command, data) in self.configs.items():
            if command not in ("evolve", "revival-map", "husimi"):
                continue
            par = qr.PhysicalParams(data["hbar"], 1.0, data["alpha"], L)
            phase = qr.PhasePoint(data["q"], data["p"])
            state = qr.make_circle_state(par, phase) \
                if data["domain"] == "circle" else qr.make_box_state(par, phase)
            self.descriptors[op] = {
                "grid": data["grid"], "modes": len(state.coefficients),
                "gamma_max": par.gamma(max(data.get("times", [0.0]))),
                "q": data["q"]}
        for op in ("sweep_transition", "sweep_point"):
            data = self.configs[op][1]
            self.descriptors[op] = {
                "grid": data.get("grid", 512), "p_grid": data.get("p_grid", 64),
                "levels": 4, "q": data["q"]}
        self.descriptors["theta_batch"] = {
            "calls": len(self.theta_taus), "im_tau_max": max(self.THETA_IM),
            "z": [self.theta_z.real, self.theta_z.imag]}

    def operations(self):
        ops = [(op, lambda c=c, p=p, o=o: _cli(c, p, o))
               for op, (c, p, o) in self.paths.items()]
        ops.append(("theta_batch",
                    lambda: _theta_batch(self.theta_z, self.theta_taus)))
        return ops

    def digest(self, op, output):
        if op == "theta_batch":
            return _sha(output.tobytes()), 0
        return _dir_digest(output)

    def check(self, outputs):
        result = CheckResult()
        long_errs = []
        for op, out in outputs.items():
            if out is None:
                continue
            if op == "theta_batch":
                # theta(z, tau + 2ki) = theta(z, tau) exactly; reported,
                # not gated.
                long_errs.append(float(np.max(np.abs(out - out[0]))
                                       / abs(out[0])))
                continue
            result.require(op, cli.verify_manifest(out))
            if op == "verify":
                table = _read_csv(os.path.join(out, "verify.csv"))
                result.require(op, all(v == "true" for v in table["pass"]))
                for name, res, tol in zip(table["check"], table["residual"],
                                          table["tolerance"]):
                    result.record(op, "verify." + name, float(res) / float(tol))
                continue
            if op == "revival_map_box":
                table = _read_csv(os.path.join(out, "revival_map.csv"))
                result.require(op, bool(table["match"]) and all(
                    v == "true" for v in table["match"]))
                continue
            if not op.startswith("evolve"):
                continue
            table = _read_csv(os.path.join(out, "density.csv"))
            for col, values in table.items():
                if col.startswith("discrepancy_t"):
                    result.record(op, "dual_engine",
                                  float(np.max(_floats(values)))
                                  / TOL_DUAL_ENGINE)
            if op == "evolve_long":
                # rho(x, 1000 T_rev) = rho(x, 0) exactly; reported, not
                # gated.
                rho0 = _floats(table["density_t0 (1/length)"])
                rho1 = _floats(table["density_t1 (1/length)"])
                long_errs.append(float(np.max(np.abs(rho1 - rho0))
                                       / np.max(rho0)))
        if long_errs:
            result.long_time_err = max(long_errs)
        return result


# ---------------------------------------------------------------------------
# random_box
# ---------------------------------------------------------------------------

class RandomBox(Workload):
    """``limitdist`` with the long-time average and p_xt at t = 5 and 20.

    t = 50 is left out: there the size quadrature reaches its order cap
    and warns.
    """

    name = "random_box"
    GRID = 101
    TIMES = (5.0, 20.0)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        q_rel = float(self.rng.uniform(-0.6, 0.6))
        data = {"hbar": 0.05, "alpha": 0.2, "half_length": 1.0,
                "grid": self.GRID, "times": list(self.TIMES),
                "include_time_average": True,
                "random_box": {"l_center": 1.0, "l_sigma": 0.02,
                               "kind": "coherent", "q_rel": q_rel,
                               "p": 1.0}}
        self.config = os.path.join(workdir, "limitdist.json")
        with open(self.config, "w") as fh:
            json.dump(data, fh)
        cli.parse_config(dict(data), command="limitdist")
        self.out = os.path.join(workdir, "out", "limitdist")
        model = qr.RandomBoxModel(qr.PhysicalParams(0.05, 1.0, 0.2, 1.0),
                                  1.0, 0.02, q_rel=q_rel, p=1.0)
        order = inspect.signature(qr.time_average_density) \
            .parameters["order"].default
        self.descriptors = {
            "grid": self.GRID, "times": list(self.TIMES),
            "modes": len(model.coefficients_for(1.0)),
            "time_average_gl_nodes": order, "q_rel": q_rel,
        }

    def operations(self):
        return [("limitdist", lambda: _cli("limitdist", self.config, self.out))]

    def digest(self, op, output):
        return _dir_digest(output)

    def check(self, outputs):
        result = CheckResult()
        out = outputs.get("limitdist")
        if out is None:
            return result
        result.require("limitdist", cli.verify_manifest(out))
        table = _read_csv(os.path.join(out, "limitdist.csv"))
        pinf = _floats(table["p_inf (1/length)"])
        uni = _floats(table["uniform (1/length)"])
        delta = _floats(table["delta (1/length)"])
        avg = _floats(table["time_average (1/length)"])
        result.record("limitdist", "limit_identity",
                      float(np.max(np.abs(pinf + delta - uni)))
                      / TOL_LIMIT_IDENTITY)
        result.record("limitdist", "time_average",
                      float(np.max(np.abs(avg - pinf)))
                      / (TOL_TIME_AVERAGE_REL * float(np.max(pinf))))
        return result


WORKLOADS = {w.name: w for w in (HusimiRevival, CliScenarios, RandomBox)}
