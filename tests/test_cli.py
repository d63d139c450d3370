import json
import math

import numpy as np
import pytest

from abring import cli
from abring.numerics import simpson_weights


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def run(args):
    return cli.main([str(a) for a in args])


COULOMB = """
[physical]
delta = 1e-4
v1 = 1.0

[quantum]
n = 0
m = 0
"""


def test_energy_single_point_coulomb(tmp_path):
    cfg = write_config(tmp_path, COULOMB)
    out = tmp_path / "out.csv"
    assert run(["energy", "--config", cfg, "--out", out]) == 0
    header, row = out.read_text().strip().split("\n")
    assert header == "n,m,B,xi,alpha,delta,v1,energy,epsilon,exists"
    cells = row.split(",")
    assert cells[-1] == "true"
    assert abs(float(cells[7]) / -2.0 - 1.0) < 1e-3


def test_energy_sweep_rows_and_order(tmp_path):
    cfg = write_config(tmp_path, """
[physical]
delta = 0.1
v1 = 20.0

[sweep]
alpha = 0.5 1.0
b_field = 1 2
""")
    out = tmp_path / "out.csv"
    assert run(["energy", "--config", cfg, "--out", out]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 4  # product of axis lengths
    # lexicographic in declaration order: alpha outermost
    got = [(r.split(",")[4], r.split(",")[2]) for r in rows]
    assert got == [("0.5", "1"), ("0.5", "2"), ("1", "1"), ("1", "2")]


def test_energy_unbound_row_is_graceful(tmp_path):
    cfg = write_config(tmp_path, """
[physical]
delta = 0.1
v1 = 1.0
b_field = 4.0
""")
    out = tmp_path / "out.csv"
    assert run(["energy", "--config", cfg, "--out", out]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[-1] == "false"
    assert row[7] == "" and row[8] == ""


def test_config_errors_exit_2(tmp_path):
    assert run(["energy", "--config", tmp_path / "missing.ini"]) == 2
    bad_key = write_config(tmp_path, "[physical]\nvolume = 3\n", "bad1.ini")
    assert run(["energy", "--config", bad_key]) == 2
    bad_axis = write_config(tmp_path, "[sweep]\ncharge = 1 2\n", "bad2.ini")
    assert run(["energy", "--config", bad_axis]) == 2
    both_flux = write_config(tmp_path, "[physical]\nxi = 1\nphi_ab = 1\n", "bad3.ini")
    assert run(["energy", "--config", both_flux]) == 2
    bad_tuple = write_config(tmp_path, "[sweep]\nn,m = 0,0 1\n", "bad4.ini")
    assert run(["energy", "--config", bad_tuple]) == 2
    # non-finite parameters and unusable grids are refused before any solve
    for i, body in enumerate(["[physical]\ndelta = nan\n", "[physical]\nv1 = inf\n",
                              "[grid]\nr_points = 2\nk_points = 2\n",
                              "[grid]\nr_points = -5\n", "[grid]\nk_max = 0\n",
                              "[grid]\nr_max = inf\n", "[grid]\nr_max = nan\n"]):
        cfg = write_config(tmp_path, body, f"bad_input{i}.ini")
        for command in ("energy", "entropy", "figures"):
            assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_entropy_exit_3_when_nothing_is_bound(tmp_path):
    cfg = write_config(tmp_path, """
[physical]
delta = 0.1
v1 = 0.01
b_field = 4.0

[grid]
r_points = 257
k_points = 257
""")
    assert run(["entropy", "--config", cfg, "--out", tmp_path / "x.csv"]) == 3


SMALL_SWEEP = """
[physical]
delta = 0.1
v1 = 20.0
phi_ab = 1.0

[grid]
r_points = 1025
k_points = 1025

[sweep]
b_field = 1 2
"""


def test_entropy_csv_layout_and_identity(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out.csv"
    assert run(["entropy", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,m,B,phi_ab,alpha,s_r,s_k,sum,pass"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] in ("true", "false")
        assert abs(float(cells[5]) + float(cells[6]) - float(cells[7])) < 5e-5


def test_entropy_skipped_rows_are_emitted(tmp_path):
    cfg = write_config(tmp_path, """
[physical]
delta = 0.1
v1 = 20.0
phi_ab = 1.0
b_field = 1.0

[grid]
r_points = 1025
k_points = 1025

[sweep]
n,m = 0,0 1,1
alpha = 0.1 1.0
""")
    out = tmp_path / "out.csv"
    assert run(["entropy", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 4
    status = [line.split(",")[-1] for line in lines]
    assert status == ["true", "true", "skipped", "true"]


def test_entropy_json_nests_report(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "out.json"
    assert run(["entropy", "--config", cfg, "--out", out, "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    report = payload[0]["report"]
    assert set(report) == {"s_r", "s_k", "sum", "bbm_bound", "margin", "pass",
                           "norm_residual_r", "norm_residual_k"}
    assert report["pass"] is True
    assert abs(payload[0]["phi_ab"] - 1.0) < 1e-12


def test_entropy_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["entropy", "--config", cfg, "--out", out_a]) == 0
    assert run(["entropy", "--config", cfg, "--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_parallel_sweep_matches_serial(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    serial = tmp_path / "serial.csv"
    threaded = tmp_path / "threaded.csv"
    assert run(["entropy", "--config", cfg, "--out", serial]) == 0
    monkeypatch.setenv("ABRING_THREADS", "4")
    assert run(["entropy", "--config", cfg, "--out", threaded]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_bad_thread_count_exits_2(tmp_path, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    cfg = write_config(tmp_path, SMALL_SWEEP)
    for value in ("x", "0"):
        monkeypatch.setenv("ABRING_THREADS", value)
        assert run(["entropy", "--config", cfg, "--out", tmp_path / "out.csv"]) == 2
        assert "config error: ABRING_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


FIGURES = """
[physical]
delta = 0.1
v1 = 20.0
b_field = 1.0
phi_ab = 1.0

[grid]
r_points = 1025
"""


def test_figures_files_and_density_mass(tmp_path):
    cfg = write_config(tmp_path, FIGURES + "k_points = 1025\n")
    outdir = tmp_path / "figs"
    assert run(["figures", "--config", cfg, "--out", outdir]) == 0
    names = sorted(p.name for p in outdir.glob("*.dat"))
    assert "fig1a_B1.dat" in names and "fig2a_B4.dat" in names
    assert "fig1b_alpha0.1.dat" in names and "fig2c_phi4.dat" in names
    assert "figka_B1.dat" in names and "figkb_alpha0.2.dat" in names
    assert len(names) == 27  # 3 panels x 3 values x (potential/density/momentum)
    for curve in ("fig2a_B1.dat", "figka_B1.dat"):
        data = np.loadtxt(outdir / curve)
        first = (outdir / curve).read_text().split("\n")[0]
        assert first.startswith("# mass=") and "n=0" in first
        mass = data[:, 1] @ simpson_weights(data.shape[0], data[1, 0] - data[0, 0])
        assert abs(mass - 1.0) < 1e-6


def test_figures_single_value_axis_overrides_panel(tmp_path):
    cfg = write_config(tmp_path, FIGURES + "\n[sweep]\nb_field = 2\n")
    outdir = tmp_path / "figs"
    assert run(["figures", "--config", cfg, "--out", outdir]) == 0
    assert sorted(p.name for p in outdir.glob("fig1a_*.dat")) == ["fig1a_B2.dat"]


def test_figures_skip_unbound_density_curves(tmp_path, capsys):
    weak = FIGURES.replace("v1 = 20.0", "v1 = 1.0") + "k_points = 1025\n"
    cfg = write_config(tmp_path, weak)
    outdir = tmp_path / "figs"
    assert run(["figures", "--config", cfg, "--out", outdir]) == 0
    # potential curves always exist; only the B=1 state is bound at v1=1
    assert len(list(outdir.glob("fig1a_*.dat"))) == 3
    assert sorted(p.name for p in outdir.glob("fig2a_*.dat")) == ["fig2a_B1.dat"]
    assert sorted(p.name for p in outdir.glob("figka_*.dat")) == ["figka_B1.dat"]
    assert "no bound state" in capsys.readouterr().err


def test_energy_json_format(tmp_path):
    cfg = write_config(tmp_path, COULOMB)
    out = tmp_path / "out.json"
    assert run(["energy", "--config", cfg, "--out", out, "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 1
    assert payload[0]["exists"] is True
    assert abs(payload[0]["energy"] / -2.0 - 1.0) < 1e-3


def test_stdout_output(tmp_path, capsys):
    cfg = write_config(tmp_path, COULOMB)
    assert run(["energy", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("n,m,B,xi,alpha,delta,v1,energy,epsilon,exists")


def test_explicit_grid_bounds(tmp_path):
    cfg = write_config(tmp_path, """
[physical]
delta = 0.1
v1 = 20.0
b_field = 1.0
phi_ab = 1.0

[grid]
r_points = 1025
k_points = 1025
r_max = 25.0
k_max = 30.0
""")
    parsed = cli.parse_config(cfg)
    assert parsed.r_max == 25.0 and parsed.k_max == 30.0
    out = tmp_path / "out.csv"
    assert run(["entropy", "--config", cfg, "--out", out]) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert row[-1] == "true"


def test_inline_comments_in_config(tmp_path):
    cfg = write_config(tmp_path, "[physical]\ndelta = 0.2  ; screening\n")
    parsed = cli.parse_config(cfg)
    params, _ = cli._build_point(parsed, {})
    assert params.delta == 0.2


def test_sweeping_xi_overrides_phi_ab_base(tmp_path):
    cfg = write_config(tmp_path, """
[physical]
delta = 0.1
v1 = 20.0
phi_ab = 1.0

[sweep]
xi = 0.25 0.5
""")
    points = cli.expand_sweep(cli.parse_config(cfg))
    assert [params.xi for _o, params, _q in points] == [0.25, 0.5]


def test_parse_config_defaults(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "[physical]\ndelta = 0.2\n"))
    assert cfg.r_points == 4096 and cfg.k_points == 4096
    assert cfg.r_max is None and cfg.k_max is None
    assert cfg.out_format == "csv"
    params, qn = cli._build_point(cfg, {})
    assert params.delta == 0.2 and params.v1 == 1.0
    assert params.mass == 1.0 and params.hbar == 1.0
    assert qn.n == 0 and qn.m == 0
