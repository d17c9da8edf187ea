"""CLI plumbing: config validation, round trips, outputs, exit codes."""

import importlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from qrevival import cli
from qrevival.box import _fold_box
from qrevival.cli import (ConfigError, emit_config, main, parse_config,
                          verify_manifest)
from qrevival.husimi import TestFamily
from qrevival.randombox import RandomBoxModel

theta = importlib.import_module("qrevival.theta")


def run_cli(tmp_path, command, config):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    return code, out


def test_config_round_trip():
    cfg = parse_config({"command": "evolve", "times": [0.0, 1.5],
                        "domain": "box", "grid": 64,
                        "random_box": {"l_center": 2.0},
                        "tolerances": {"dual_engine": 1e-9}})
    again = parse_config(emit_config(cfg))
    assert again == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config({"command": "evolve", "times": [0.0], "bogus": 1})
    with pytest.raises(ConfigError, match="random_box"):
        parse_config({"command": "limitdist",
                      "random_box": {"l_centre": 1.0}})


def test_validation_messages_name_fields(tmp_path, capsys):
    with pytest.raises(ConfigError, match="hbar"):
        parse_config({"command": "evolve", "times": [0.0], "hbar": -1.0})
    with pytest.raises(ConfigError, match="times"):
        parse_config({"command": "evolve", "times": []})
    with pytest.raises(ConfigError, match="levels"):
        parse_config({"command": "sweep", "levels": 2})
    with pytest.raises(ConfigError, match="levels"):
        parse_config({"command": "sweep", "levels": 3})
    with pytest.raises(ConfigError, match="family_j"):
        parse_config({"command": "sweep", "family_j": -1})
    with pytest.raises(ConfigError, match="tolerances"):
        parse_config({"command": "verify", "tolerances": {"bogus": 1.0}})
    # Through the entry point: a config error, not a crash (exit 1 is
    # "verify failed") and not a run on an empty momentum grid.
    eigen = {"kind": "eigenstate"}
    for command, config, field in (
            ("sweep", {"p_grid": 0}, "p_grid:"),
            ("husimi", {"p_grid": 0}, "p_grid:"),
            ("husimi", {"p_grid": -3}, "p_grid:"),
            ("evolve", {"grid": "abc"}, "grid:"),
            ("evolve", {"hbar": "0.05"}, "hbar:"),
            ("evolve", {"times": 5}, "times:"),
            ("evolve", {"times": [0.0], "hbar": True}, "hbar:"),
            ("limitdist", {"random_box": {**eigen, "eigen_index": 0}},
             "eigen_index"),
            ("limitdist", {"random_box": {**eigen, "eigen_index": -2}},
             "eigen_index"),
            ("limitdist", {"random_box": {"l_center": math.nan}},
             "l_center"),
            # np.random.default_rng(-1) would raise in the run.
            ("verify", {"seed": -1}, "seed:")):
        code, _ = run_cli(tmp_path, command, config)
        assert code == 2
        assert field in capsys.readouterr().err


# JSON reads NaN and Infinity.  Each of these used to run: to a
# traceback, to nan columns, or to a failed verification (exit 1).
@pytest.mark.parametrize("command, config, field", [
    ("limitdist", {"random_box": {"p": math.nan}}, "random_box.p:"),
    ("limitdist", {"random_box": {"q_rel": math.nan}}, "random_box.q_rel:"),
    ("limitdist", {"family_p_width": math.nan}, "family_p_width:"),
    ("limitdist", {"times": [math.nan]}, "times:"),
    ("limitdist", {"times": [math.inf]}, "times:"),
    ("verify", {"tolerances": {"dual_engine": -1.0}},
     "tolerances: dual_engine"),
    ("verify", {"tolerances": {"norm_series": 0.0}},
     "tolerances: norm_series"),
    ("verify", {"tolerances": {"dual_engine": math.nan}},
     "tolerances: dual_engine"),
])
def test_non_finite_values_are_config_errors(tmp_path, capsys, command,
                                              config, field):
    code, _ = run_cli(tmp_path, command, config)
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("p, why", [
    (1e300, "box coefficient table needs"),  # modes 1..max|k| too many
    (1e308, "spectral window needs inf modes"),  # p / hbar overflows
])
def test_unallocatable_box_exits_capacity(tmp_path, capsys, p, why):
    # Both used to end in an OverflowError traceback (exit 1).
    code, _ = run_cli(tmp_path, "limitdist", {"random_box": {"p": p}})
    assert code == 3
    assert why in capsys.readouterr().err


@pytest.mark.parametrize("command, config, cap, why", [
    # About 2500 images, each a pass over the grid.
    ("evolve", {"times": [5000.0], "method": "image_sum"}, 1000,
     "image sum needs"),
    # gamma^2 overflows, so the windows have no finite bound.
    ("evolve", {"times": [1e300], "method": "image_sum"}, None,
     "image sum needs inf images"),
    ("husimi", {"times": [1e300]}, None,
     "overlap image window needs inf images"),
    ("revival-map", {"fractions": ["1/1001"]}, 1000,
     "limit profile needs 1001 centres"),
])
def test_windows_above_cap_exit_capacity(tmp_path, capsys, monkeypatch,
                                         command, config, cap, why):
    # Each used to run to the end, or to a traceback (exit 1).
    if cap is not None:
        monkeypatch.setattr(theta, "MODE_CAP", cap)
    code, _ = run_cli(tmp_path, command,
                      dict(config, grid=16, p_grid=4, q=0.3, p=1.0))
    assert code == 3
    assert why in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "revival-map"])
def test_degenerate_box_label_is_config_error(tmp_path, capsys, command):
    code, _ = run_cli(tmp_path, command,
                      {"domain": "box", "q": 3.0, "p": 0.0, "grid": 16,
                       "times": [0.0], "fractions": ["1/2"]})
    assert code == 2
    assert "exclusion region" in capsys.readouterr().err


def test_evolve_revival_round(tmp_path):
    code, out = run_cli(tmp_path, "evolve",
                        {"times": [0.0], "grid": 64})
    assert code == 0
    header = (out / "density.csv").read_text().splitlines()[0]
    assert header.startswith("x (length)")
    assert verify_manifest(str(out))


def test_evolve_full_revival_density(tmp_path):
    t_rev = 4.0 * 1.0 * math.pi**2 / (math.pi * 0.05)
    code, out = run_cli(tmp_path, "evolve",
                        {"times": [0.0, t_rev], "grid": 128, "q": 0.4})
    assert code == 0
    rows = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-10


def test_evolve_both_methods_discrepancy(tmp_path):
    code, out = run_cli(tmp_path, "evolve",
                        {"times": [0.7], "grid": 128, "method": "both"})
    assert code == 0
    rows = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert np.max(rows[:, 2]) < 1e-10


def test_empty_times_exit_2(tmp_path):
    code, _ = run_cli(tmp_path, "evolve", {"times": []})
    assert code == 2


def test_unreduced_fraction_exit_2(tmp_path):
    code, _ = run_cli(tmp_path, "revival-map", {"fractions": ["2/4"]})
    assert code == 2


def test_capacity_exit_3(tmp_path):
    code, _ = run_cli(tmp_path, "evolve",
                      {"times": [0.0], "hbar": 1e-12, "alpha": 1e-9,
                       "half_length": math.pi})
    assert code == 3


def test_huge_window_evolve_exit_0(tmp_path):
    # 1.26e6 modes on the default 512-point grid: the synthesis needs
    # O(modes + points) memory, where an explicit basis takes 9.65 GiB.
    code, out = run_cli(tmp_path, "evolve",
                        {"times": [0.0, 0.5], "hbar": 0.05, "alpha": 1e-5,
                         "half_length": math.pi, "q": 0.3,
                         "method": "spectral"})
    assert code == 0
    rows = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert rows.shape == (512, 3) and np.all(np.isfinite(rows))


# The circle config, and the box config of the benchmark's revival map.
REVIVAL_MAPS = {
    "circle": ({"hbar": 0.02, "alpha": 0.02 * math.pi, "q": 0.5,
                "fractions": ["1/3", "1/2"], "grid": 512},
               {"1/3": "3", "1/2": "1"}),
    "box": ({"domain": "box", "hbar": 0.02, "alpha": 0.0628, "q": 0.5,
             "fractions": ["1/3", "1/2", "1/4"], "grid": 1024},
            {"1/3": "3", "1/2": "1", "1/4": "2"}),
}


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_revival_map_matches(tmp_path, domain):
    config, want = REVIVAL_MAPS[domain]
    code, out = run_cli(tmp_path, "revival-map", config)
    assert code == 0
    lines = (out / "revival_map.csv").read_text().splitlines()[1:]
    assert all(line.endswith("true") for line in lines)
    counts = {line.split(",")[0]: line.split(",")[2] for line in lines}
    assert counts == want


def test_sweep_scenarios_run_and_repeat(tmp_path):
    base = ["level", "hbar (action)", "alpha (length)", "t (time)"]
    columns = {
        "transition": base + ["residual", "verdict"],
        "point": base + ["residual_delta", "verdict_delta",
                         "residual_profile", "verdict_profile"],
    }
    for scenario, header in columns.items():
        config = {"domain": "circle", "scenario": scenario, "q": 0.7,
                  "regime_c": "0", "regime_d": "1", "levels": 4,
                  "grid": 256, "p_grid": 32}
        runs = []
        for name in ("first", "second"):
            sub = tmp_path / scenario / name
            sub.mkdir(parents=True)
            code, out = run_cli(sub, "sweep", config)
            assert code == 0
            runs.append((out / "sweep.csv").read_bytes())
        assert runs[0] == runs[1]
        lines = runs[0].decode().splitlines()
        assert lines[0].split(",") == header
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        residuals = [float(r[i]) for r in rows
                     for i, col in enumerate(header)
                     if col.startswith("residual")]
        assert np.all(np.isfinite(residuals))
        assert all(r[i] in ("true", "false") for r in rows
                   for i, col in enumerate(header)
                   if col.startswith("verdict"))


def test_box_sweep_pairs_both_momentum_windows(tmp_path, monkeypatch):
    # At t = 4 the packet from (0.5, 1) has hit the right wall: it sits
    # at q = 1.78 with p = -1, outside a p > 0 window.  Its Husimi
    # pairings must follow the folded delta, harmonics' signs included.
    hbar = 0.002
    alpha = 0.3 * math.sqrt(hbar)
    config = {"domain": "box", "hbar": hbar, "alpha": alpha, "q": 0.5,
              "p": 1.0, "scenario": "point", "regime_c": "0",
              # t = 2 m D alpha / hbar = 4 at level 0.
              "regime_d": repr(2.0 * hbar / alpha), "levels": 4,
              "grid": 128, "p_grid": 32, "family_j": 2,
              "family_p_width": 0.2}
    pairings = []
    pair = cli.pair_sampled

    def spy(*args):
        out = pair(*args)
        pairings.extend(np.atleast_1d(out))
        return out

    monkeypatch.setattr(cli, "pair_sampled", spy)
    code, out = run_cli(tmp_path, "sweep", config)
    assert code == 0
    family = TestFamily("box", math.pi, (1.0,), 0.2, J=2)
    q_t, sign = _fold_box(0.5 - math.pi + 4.0, math.pi)
    assert sign == -1.0 and abs(q_t - 1.7832) < 1e-4
    targets = [float(family.value(i, q_t, 1.0)) for i in range(family.size)]
    assert np.array_equal(np.sign(targets), [1, -1, 1, -1, -1])
    level0 = np.array(pairings[:family.size])
    assert np.array_equal(np.sign(level0), np.sign(targets))
    assert np.max(np.abs(level0 - targets)) < 0.15
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert float(rows[0].split(",")[4]) < 0.15


@pytest.mark.parametrize("domain", ["circle", "box"])
def test_transition_sweep_converges(tmp_path, domain):
    # transition_grid is |((q, p), U_t(q', p'))|^2, which peaks at
    # q' = q - p t / m; a profile drifted forward gave residuals 1.05,
    # 1.06, 0.32, 0.68 on the circle.
    if domain == "circle":
        config = {"domain": "circle", "q": 1.3, "regime_c": "0",
                  "regime_d": "1", "grid": 512, "p_grid": 64}
    else:
        hbar = 0.002
        alpha = 0.3 * math.sqrt(hbar)
        config = {"domain": "box", "hbar": hbar, "alpha": alpha, "q": 0.5,
                  "p": 1.0, "regime_c": "0",
                  "regime_d": repr(2.0 * hbar / alpha), "grid": 128,
                  "p_grid": 32, "family_j": 2, "family_p_width": 0.2}
    config.update(scenario="transition", levels=4)
    code, out = run_cli(tmp_path, "sweep", config)
    assert code == 0
    rows = [line.split(",")
            for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    residuals = [float(r[4]) for r in rows]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert all(r[5] == "true" for r in rows)


def test_box_sweep_rejects_overlapping_windows():
    with pytest.raises(ConfigError, match="family_p_width"):
        parse_config({"command": "sweep", "domain": "box", "p": 0.5,
                      "family_p_width": 0.2})


CSV_TABLES = {
    "floats": (["a", "b"], [[math.nan, -0.0], [math.inf, 5e-324],
                            [-math.inf, 1e308], [np.float64(0.1), 2.5]]),
    "scalars": (["f32", "int", "i64", "bool", "np_bool", "str"],
                [[np.float32(0.1), 3, np.int64(-7), True, np.bool_(False),
                  "1/3"],
                 [np.float32(-2.5), 0, np.int64(2**40), False,
                  np.bool_(True), "x y"]]),
    "mixed": (["m1", "m2", "m3"], [[1.5, "a", True], [2, 0.25, 1.0],
                                   [np.int64(4), np.float32(0.5),
                                    math.nan]]),
    "empty": (["only", "header"], []),
}


def test_csv_bytes_match_fmt_join(tmp_path):
    emitter = cli.Emitter(parse_config({"command": "verify",
                                        "out_dir": str(tmp_path)}))
    for name, (columns, rows) in CSV_TABLES.items():
        emitter.add(name, columns, rows)
    emitter.flush()
    for name, (columns, rows) in CSV_TABLES.items():
        lines = [",".join(columns)]
        lines += [",".join(cli._fmt(v) for v in row) for row in rows]
        want = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / (name + ".csv")).read_bytes() == want
    assert verify_manifest(str(tmp_path))


def test_determinism_byte_identical(tmp_path):
    config = {"times": [0.0, 0.4], "grid": 64}
    _, out1 = run_cli(tmp_path, "evolve", config)
    (tmp_path / "config.json").unlink()
    sub = tmp_path / "second"
    sub.mkdir()
    _, out2 = run_cli(sub, "evolve", config)
    assert (out1 / "density.csv").read_bytes() \
        == (out2 / "density.csv").read_bytes()


def test_json_format(tmp_path):
    code, out = run_cli(tmp_path, "evolve",
                        {"times": [0.0], "grid": 32, "format": "json"})
    assert code == 0
    doc = json.loads((out / "result.json").read_text())
    assert "manifest" in doc and "density" in doc["tables"]
    assert len(doc["tables"]["density"]["rows"]) == 32


def test_limitdist_identity_column(tmp_path):
    code, out = run_cli(tmp_path, "limitdist",
                        {"half_length": 1.0, "grid": 65,
                         "random_box": {"l_center": 1.0, "l_sigma": 0.02,
                                        "q_rel": 0.3, "p": 1.0}})
    assert code == 0
    rows = np.loadtxt(out / "limitdist.csv", delimiter=",", skiprows=1)
    # p_inf + delta - uniform = 0.
    assert np.max(np.abs(rows[:, 1] + rows[:, 3] - rows[:, 2])) < 1e-12


def test_limitdist_builds_each_table_once(tmp_path, monkeypatch):
    # p_xt at t = 20 adapts to order 2049, the time average's default.
    sizes = []
    table = RandomBoxModel.coefficient_table

    def spy(self, nodes):
        sizes.append(len(nodes))
        return table(self, nodes)

    monkeypatch.setattr(RandomBoxModel, "coefficient_table", spy)
    code, _ = run_cli(tmp_path, "limitdist",
                      {"half_length": 1.0, "grid": 101, "times": [5.0, 20.0],
                       "include_time_average": True,
                       "random_box": {"l_center": 1.0, "l_sigma": 0.02,
                                      "q_rel": 0.17, "p": 1.0}})
    assert code == 0
    # No one-node probe tables: the order rule reads the mode window.
    assert Counter(sizes) == {129: 1, 513: 1, 2049: 1}


def test_verify_all_pass(tmp_path):
    code, out = run_cli(tmp_path, "verify", {})
    assert code == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_corrupted_tolerance_names_check(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "verify",
                      {"tolerances": {"dual_engine": 1e-30}})
    assert code == 1
    err = capsys.readouterr().err
    assert "dual_engine" in err


def test_out_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("QREVIVAL_OUT_DIR", str(target))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"times": [0.0], "grid": 32}))
    code = main(["evolve", "--config", str(cfg_path)])
    assert code == 0
    assert (target / "density.csv").exists()
