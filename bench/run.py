"""qrevival benchmark: one workload per call, end to end or traced.

Usage (from the repository root)::

    python3 bench/run.py --workload husimi_revival --seed 1 --seconds 20 \
        --trace 0

Workloads: ``husimi_revival``, ``cli_scenarios``, ``random_box`` (see
``workloads.py``).  The package is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``: median wall time of one iteration, after one untimed
  warm-up iteration, over iterations adding up to ``--seconds`` (at
  least three);
* ``setup_s``: median over fresh processes, one started after each timed
  iteration and at least nine in all, of the time from process start
  until the first iteration is ready (imports, seeded inputs, config
  parsing).  Spreading them over the run lets slow drifts of machine
  speed average out as they do for ``wall_s``;
* ``peak_rss_mb``: peak resident memory of this process after the timed
  iterations.

``--trace 1`` alternates untraced and traced iterations for ``--seconds``
and prints the per-layer metrics: per-iteration medians of module and
function self times, call counts and counters, ``trace.overhead_s``
(median traced-minus-untraced iteration time), and the checks'
``err_over_tol``, ``fail_frac`` and ``long_time_err``.  These three are
not end-to-end metrics because end-to-end metrics are gated against the
parent's median: ``fail_frac`` is 0 on a correct run, and the other two
are rounding residuals whose seed-to-seed spread is wider than any
bound.  Correctness is gated by ``correct`` and ``failed`` instead:
every check must hold on every run.

Both modes check every output outside the timed region, print a
human-readable summary and a ``report:`` line with the environment and
work descriptors, and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

BLAS and OpenMP are pinned to one thread, so each run is one process
with one compute thread; the setting is recorded in the report.
"""

from __future__ import annotations

import os

# Pin before numpy is imported anywhere in this process or its children.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_ENV_GIVEN = {v: os.environ.get(v) for v in _THREAD_VARS}
for _v in _THREAD_VARS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
MIN_ITERATIONS = 3

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("husimi.self_s", "s"),
    ("husimi.husimi_grid.self_s", "s"),
    ("husimi.husimi_grid.total_s", "s"),
    ("theta.overlap_core.self_s", "s"),
    ("theta.overlap_core.calls", "count"),
    ("husimi.husimi_grid.pairs", "count"),
    ("husimi.gamma_max", "1"),
    ("husimi.transition_grid.self_s", "s"),
    ("husimi.pair_sampled.self_s", "s"),
    ("husimi.pair_profile.self_s", "s"),
    ("husimi.rho_from_classical.self_s", "s"),
    ("circle.self_s", "s"),
    ("circle.eval_state.self_s", "s"),
    ("circle.eval_state.calls", "count"),
    ("circle.basis_bytes", "bytes"),
    ("circle.evolve.self_s", "s"),
    ("theta.gaussian_packet.self_s", "s"),
    ("theta.self_s", "s"),
    ("theta.theta.self_s", "s"),
    ("theta.theta.calls", "count"),
    ("randombox.self_s", "s"),
    ("randombox.time_average_density.self_s", "s"),
    ("randombox.p_xt.self_s", "s"),
    ("randombox.delta_correction.self_s", "s"),
    ("box.box_coefficients.calls", "count"),
    ("box.box_norm_sq.calls", "count"),
    ("randombox.warnings", "count"),
    ("box.self_s", "s"),
    ("circle.circle_norm_sq.calls", "count"),
    ("oracles.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
    ("err_over_tol", "1"),
    ("fail_frac", "1"),
    ("long_time_err", "1"),
]


def _husimi_grid_counts(a):
    rho = a["rho"]
    return {"husimi.husimi_grid.pairs":
            len(rho.atoms) * len(a["q"]) * len(a["p"]),
            "husimi.gamma_max": rho.params.gamma(rho.time)}


def _eval_state_counts(a):
    if a["method"] != "spectral":
        return {}
    import numpy as np
    points = np.atleast_1d(np.asarray(a["x"])).size
    return {"circle.basis_bytes": 16 * points * len(a["state"].coefficients)}


# Counters computed from the arguments of these calls; bytes are
# computed from array sizes, not measured.
COUNTERS = {"husimi.husimi_grid": _husimi_grid_counts,
            "circle.eval_state": _eval_state_counts}
MAXIMA = ("husimi.gamma_max",)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "thread_env_given": _THREAD_ENV_GIVEN,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


class Runner:
    """Runs one workload's iterations and keeps what they produced."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = workload.operations()
        self.attempted = 0
        self.exec_failed: dict[str, int] = {}
        self.errors: dict[str, str] = {}
        self.reference: dict[str, tuple[str, int]] | None = None
        self.mismatched: set[str] = set()
        self.runs: dict[str, int] = {}
        self.outputs: dict = {}
        self.bytes_written = 0
        self.warnings: list[tuple[int, int]] = []

    def iteration(self, tracer=None, index=0) -> float:
        """Run every operation once; returns the iteration's wall time."""
        outputs = {}
        failed = set()
        sink = io.StringIO()

        def body():
            for name, fn in self.ops:
                try:
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        outputs[name] = fn()
                except Exception:
                    outputs[name] = None
                    failed.add(name)
                    self.errors[name] = traceback.format_exc() \
                        + sink.getvalue()[-2000:]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            if tracer is None:
                body()
            else:
                tracer.iteration(index, body)
            wall = time.perf_counter() - start
        self.warnings.append((len(caught), sum(
            1 for w in caught if Path(w.filename).name == "randombox.py")))
        self._account(outputs, failed)
        return wall

    def _account(self, outputs, failed) -> None:
        digests = {}
        for name, _ in self.ops:
            self.attempted += 1
            self.runs[name] = self.runs.get(name, 0) + 1
            if name in failed:
                self.exec_failed[name] = self.exec_failed.get(name, 0) + 1
                continue
            digests[name] = self.workload.digest(name, outputs[name])
        self.bytes_written = sum(size for _, size in digests.values())
        if self.reference is None:
            self.reference = digests
        for name, (sha, _) in digests.items():
            ref = self.reference.get(name)
            if ref is not None and ref[0] != sha:
                self.mismatched.add(name)
        self.outputs = outputs

    def loop(self, seconds: float, between) -> list[float]:
        """Untraced iterations adding up to ``seconds``, at least
        MIN_ITERATIONS; ``between()`` runs untimed after each one."""
        walls = []
        while len(walls) < MIN_ITERATIONS or sum(walls) < seconds:
            walls.append(self.iteration())
            between()
        return walls

    def failures(self, checked) -> tuple[int, dict[str, str]]:
        """Failed operation runs, and why each failing operation failed.

        Outputs repeat byte for byte across iterations (else the
        operation fails as non-deterministic), so an operation whose
        last output fails a check fails in every iteration.
        """
        why = {}
        failed = 0
        for name, _ in self.ops:
            if name in checked.failed or name in self.mismatched:
                failed += self.runs[name]
                why[name] = "failed check" if name in checked.failed \
                    else "output differs between iterations"
            elif self.exec_failed.get(name):
                failed += self.exec_failed[name]
                why[name] = self.errors.get(name, "")
        return failed, why


def traced_loop(runner, tracer, seconds: float):
    """Alternate untraced and traced iterations for ``seconds``.

    Pairing each traced iteration with the untraced one just before it
    keeps slow drifts of machine speed out of ``trace.overhead_s``.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_ITERATIONS \
            or time.perf_counter() - start < seconds:
        untraced.append(runner.iteration())
        tracer.install()
        try:
            traced.append(runner.iteration(tracer, len(traced)))
        finally:
            tracer.uninstall()
    return untraced, traced


def setup_probe(workload: str, seed: int) -> float:
    """Time from process start to 'ready' in a fresh probe process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()}")
    return elapsed


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer, untraced, traced, checked, fail_frac,
                      runner) -> dict[str, float]:
    rows = list(tracer.summary().values())
    values = {}
    for name, _ in PER_LAYER:
        values[name] = _median([r.get(name, 0.0) for r in rows])
    values["trace.overhead_s"] = _median(
        [t - u for t, u in zip(traced, untraced)])
    values["randombox.warnings"] = _median([w for _, w in runner.warnings])
    values["cli.bytes_written"] = float(runner.bytes_written)
    values["err_over_tol"] = checked.err_over_tol
    values["fail_frac"] = fail_frac
    values["long_time_err"] = checked.long_time_err or 0.0
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    """Run one workload; returns the result line and the report."""
    from workloads import WORKLOADS

    setup = []
    workload = WORKLOADS[workload_name](seed, workdir)
    runner = Runner(workload)
    runner.iteration()  # warm-up, untimed
    report = {"workload": workload_name, "seed": seed, "trace": int(trace),
              "environment": environment(),
              "descriptors": workload.descriptors}
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer(COUNTERS, MAXIMA)
        untraced, walls = traced_loop(runner, tracer, seconds)
        # Every iteration's digests were compared with the first
        # (untraced) iteration's, so traced outputs that differ by a
        # byte count as failures.
        report["traced_identical"] = not runner.mismatched
        report["untraced_wall_s"] = untraced
        report["digests"] = {k: sha for k, (sha, _) in
                             runner.reference.items()}
    else:
        def probe():
            setup.append(setup_probe(workload_name, seed))

        walls = runner.loop(seconds, probe)
        while len(setup) < SETUP_PROBES:
            probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = workload.check(runner.outputs)
    failed, why = runner.failures(checked)
    fail_frac = failed / runner.attempted
    correct = failed == 0 and checked.err_over_tol <= 1.0

    if trace:
        values = per_layer_metrics(tracer, untraced, walls, checked,
                                   fail_frac, runner)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        report["self_time_gap_s"] = [
            r["wall_s"] - sum(v for k, v in r.items()
                              if k.endswith(".self_s") and k.count(".") == 1)
            for r in tracer.summary().values()]
    else:
        values = {"wall_s": _median(walls), "setup_s": _median(setup),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    report.update({
        "wall_s": walls, "setup_s": setup, "peak_rss_mb": peak_rss_mb,
        "iterations": len(walls), "err_over_tol": checked.err_over_tol,
        "check_ratios": checked.ratios, "fail_frac": fail_frac,
        "long_time_err": checked.long_time_err,
        "warnings": [w for w, _ in runner.warnings],
        "failures": why,
    })
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    return {"result": result, "report": report}


def summary_lines(out: dict) -> list[str]:
    rep = out["report"]
    lines = [f"workload {rep['workload']}  seed {rep['seed']}  "
             f"trace {rep['trace']}  iterations {rep['iterations']}"]
    if not rep["trace"]:
        lines.append(f"  wall_s       {_median(rep['wall_s']):.6f} s "
                     f"(median of {len(rep['wall_s'])} iterations)")
        lines.append(f"  setup_s      {_median(rep['setup_s']):.6f} s "
                     f"(median of {len(rep['setup_s'])} processes)")
        lines.append(f"  peak_rss_mb  {rep['peak_rss_mb']:.1f} MB")
    lines.append(f"  err_over_tol {rep['err_over_tol']:.3e} 1")
    lines.append(f"  fail_frac    {rep['fail_frac']:.3e} 1")
    if rep["long_time_err"] is not None:
        lines.append(f"  long_time_err {rep['long_time_err']:.3e} 1 "
                     "(reported, not gated)")
    for name, why in rep["failures"].items():
        last = why.strip().splitlines()[-1] if why.strip() else ""
        lines.append(f"  FAILED {name}: {last}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qrevival" / "__init__.py").is_file():
        print(f"bench: no qrevival sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qrevival
    if Path(qrevival.__file__).resolve().parent != src / "qrevival":
        print(f"bench: imported qrevival from {qrevival.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, str(workdir))
            print("ready", flush=True)
            return 0
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in summary_lines(out):
        print(line)
    print("report: " + json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
