import json
import math
import subprocess
import sys

import numpy as np
import pytest

from abring import cli, entropy, model
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


def _per_point_sweep(cfg):
    """Sweep points one dict and one ModelParams at a time, first axis outermost,
    as the per-point path built them."""
    points = [{}]
    for names, values in cfg.sweep:
        points = [dict(p, **dict(zip(names, v))) for p in points for v in values]
    rows = []
    for overrides in points:
        phys, quantum = dict(cfg.physical), {"n": cfg.n, "m": cfg.m}
        for key, value in overrides.items():
            if key in ("xi", "phi_ab"):   # a swept flux form overrides the other one
                phys.pop("phi_ab" if key == "xi" else "xi", None)
            (quantum if key in cli.QUANTUM_KEYS else phys)[key] = value
        phi_ab = phys.pop("phi_ab", None)
        params = model.ModelParams(**phys)
        if phi_ab is not None:
            params = params.with_flux(phi_ab)
        rows.append((params, model.QuantumNumbers(quantum["n"], quantum["m"])))
    return rows


def _per_point_energy_output(points, out_format):
    """`abring energy` as the per-point path wrote it: the scalar closed form
    per point, then that path's row formatting."""
    rows = [(params, qn, model.energy_closed_form(params, qn)) for params, qn in points]
    fmt = cli._fmt
    if out_format == "csv":
        lines = [cli.ENERGY_HEADER]
        for params, qn, rep in rows:
            lines.append(",".join([
                str(qn.n), str(qn.m), fmt(params.b_field), fmt(params.xi), fmt(params.alpha),
                fmt(params.delta), fmt(params.v1), fmt(rep.energy) if rep.exists else "",
                fmt(rep.epsilon) if rep.exists else "", "true" if rep.exists else "false"]))
        return "\n".join(lines) + "\n"
    return json.dumps([{
        "n": qn.n, "m": qn.m, "b_field": params.b_field, "xi": params.xi,
        "alpha": params.alpha, "delta": params.delta, "v1": params.v1,
        "energy": rep.energy if rep.exists else None,
        "epsilon": rep.epsilon if rep.exists else None,
        "exists": rep.exists, "reason": rep.reason,
    } for params, qn, rep in rows], indent=2) + "\n"


def _seeded_sweeps(rng):
    axis = lambda lo, hi, k: " ".join(repr(v) for v in rng.uniform(lo, hi, k).tolist())
    return {
        "zipped n,m and swept hbar over a phi_ab base": f"""
[physical]
phi_ab = {rng.uniform(-3.0, 3.0)!r}
[sweep]
n,m = 0,0 1,-1 2,1 0,2 3,-2
hbar = {axis(0.5, 2.0, 3)}
b_field = {axis(0.0, 3.0, 3)}
alpha = {axis(0.2, 1.5, 3)}
delta = {axis(0.02, 0.5, 3)}
v1 = {axis(0.5, 40.0, 3)} 1e300
""",
        "xi axis over a phi_ab base": f"""
[physical]
phi_ab = {rng.uniform(-3.0, 3.0)!r}
mass = {rng.uniform(0.5, 2.0)!r}
[sweep]
xi = 0.0 -0.0 {axis(-1.5, 1.5, 3)}
b_field,alpha = {" ".join(f"{b!r},{a!r}" for b, a in rng.uniform(0.0, 1.5, (3, 2)).tolist())}
m = -2 0 1
n = 0 2
delta = {axis(0.02, 0.5, 3)}
v1 = {axis(0.5, 40.0, 3)}
""",
        "phi_ab axis with swept hbar over an xi base": f"""
[physical]
xi = {rng.uniform(-1.0, 1.0)!r}
[sweep]
phi_ab = {axis(-3.0, 3.0, 4)}
hbar = {axis(0.5, 2.0, 3)}
n,m = 0,0 1,2 2,-1
b_field = {axis(0.0, 3.0, 3)} 1e200
alpha = {axis(0.2, 1.5, 3)}
v1 = {axis(0.5, 40.0, 3)}
""",
    }


def test_columnar_energy_matches_the_per_point_path(tmp_path):
    reasons = set()
    for i, body in enumerate(_seeded_sweeps(np.random.default_rng(21)).values()):
        path = write_config(tmp_path, body, f"sweep{i}.ini")
        points = _per_point_sweep(cli.parse_config(path))
        assert list(cli.expand_sweep(cli.parse_config(path))) == points
        for fmt in ("csv", "json"):
            out = tmp_path / f"out{i}.{fmt}"
            assert run(["energy", "--config", path, "--out", out, "--format", fmt]) == 0
            assert out.read_bytes() == _per_point_energy_output(points, fmt).encode("utf-8")
        reasons |= {row["reason"] for row in json.loads(out.read_text())}
    assert reasons == set(model.UNBOUND_REASONS)


@pytest.mark.parametrize("body", ["v1 = 1e300", "delta = 1e-300", "hbar = 1e-200",
                                  "b_field = 1e200"])
def test_nonfinite_closed_form_is_refused_per_row(tmp_path, capsys, body):
    cfg = write_config(tmp_path, f"[physical]\n{body}\n")
    out = tmp_path / "out"
    assert run(["energy", "--config", cfg, "--out", out]) == 0
    assert out.read_text().strip().split("\n")[1].endswith(",,,false")
    assert run(["energy", "--config", cfg, "--out", out, "--format", "json"]) == 0
    row, = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert not row["exists"] and row["energy"] is None
    assert row["reason"] == model.UNBOUND_REASONS[4]
    assert run(["entropy", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == "error: no sweep point has a bound state\n"


def _per_point_entropy_output(cfg, points):
    """`abring entropy` CSV and JSON as the per-point path wrote them: one
    `entropy_pipeline` report kept per point, then that path's row formatting."""
    rows = []
    for params, qn in points:
        try:
            rep = entropy.entropy_pipeline(params, qn, cfg.r_points, cfg.k_points,
                                           cfg.r_max, cfg.k_max)
        except model.NoBoundStateError:
            rep = None
        rows.append((params, qn, rep))
    lines = [cli.ENTROPY_HEADER]
    for params, qn, rep in rows:
        head = [str(qn.n), str(qn.m), cli._fmt(params.b_field),
                cli._fmt(params.xi * params.flux_quantum), cli._fmt(params.alpha)]
        tail = ["", "", "", "skipped"] if rep is None else [
            f"{rep.s_r:.6f}", f"{rep.s_k:.6f}", f"{rep.sum:.6f}", "true" if rep.passed else "false"]
        lines.append(",".join(head + tail))
    payload = [{
        "n": qn.n, "m": qn.m, "b_field": params.b_field,
        "phi_ab": params.xi * params.flux_quantum, "alpha": params.alpha,
        "report": rep.to_json_dict() if rep is not None else None,
    } for params, qn, rep in rows]
    return {"csv": "\n".join(lines) + "\n", "json": json.dumps(payload, indent=2) + "\n"}


def test_columnar_entropy_echo_matches_the_per_point_path(tmp_path):
    rng = np.random.default_rng(22)
    axis = lambda lo, hi, k: " ".join(repr(v) for v in rng.uniform(lo, hi, k).tolist())
    grid = "[grid]\nr_points = 65\nk_points = 65\n"
    bodies = [f"""
[physical]
xi = {rng.uniform(-1.0, 1.0)!r}
delta = {rng.uniform(0.05, 0.3)!r}
{grid}
[sweep]
phi_ab = -0.0 {axis(-3.0, 3.0, 2)}
hbar = {axis(0.5, 2.0, 2)}
n,m = 0,0 1,-1 2,1
b_field = {axis(0.0, 3.0, 2)}
v1 = 0.5 {axis(5.0, 40.0, 1)}
""", f"""
[physical]
phi_ab = {rng.uniform(-3.0, 3.0)!r}
mass = {rng.uniform(0.5, 2.0)!r}
{grid}
[sweep]
xi = 0.0 -0.0 {axis(-1.5, 1.5, 2)}
n,m = 0,0 1,1 0,-2
b_field,alpha = {" ".join(f"{b!r},{a!r}" for b, a in rng.uniform(0.2, 1.5, (2, 2)).tolist())}
v1 = 0.5 {axis(5.0, 40.0, 1)}
"""]
    statuses = set()
    for i, body in enumerate(bodies):
        path = write_config(tmp_path, body, f"sweep{i}.ini")
        cfg = cli.parse_config(path)
        points = _per_point_sweep(cfg)
        assert list(cli.expand_sweep(cfg)) == points
        expected = _per_point_entropy_output(cfg, points)
        for fmt in ("csv", "json"):
            out = tmp_path / f"out{i}.{fmt}"
            assert run(["entropy", "--config", path, "--out", out, "--format", fmt]) == 0
            assert out.read_bytes() == expected[fmt].encode("utf-8")
        statuses |= {line.split(",")[-1] for line in expected["csv"].split("\n")[1:-1]}
        assert ",-0," in expected["csv"]   # the signed zero flux is echoed as such
    assert statuses == {"true", "skipped"}


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
                              "[grid]\nr_max = inf\n", "[grid]\nr_max = nan\n",
                              # at or below the grid start r_min = 1e-6/delta
                              "[physical]\nv1 = 20\n\n[grid]\nr_max = 1e-9\n",
                              # one parameter bound by two axes (xi and phi_ab are one flux)
                              "[sweep]\nb_field = 1 2\nb_field,phi_ab = 3,1 4,1\n",
                              "[sweep]\nxi = 0.1 0.2\nphi_ab = 1 2\n",
                              "[sweep]\nn,n = 0,1 1,2\n",
                              # integers are held in int64 columns
                              "[sweep]\nm = 0 100000000000000000000\n"]):
        cfg = write_config(tmp_path, body, f"bad_input{i}.ini")
        for command in ("energy", "entropy", "figures"):
            assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2


@pytest.mark.parametrize("body,named", [
    ("[sweep]\nb_field = 1 2\ndelta = 0.1 -0.2\n", "delta"),
    ("[sweep]\nn,m = 0,0 1,1\nalpha = 1 0\n", "alpha"),
    ("[sweep]\nv1 = 20 30\nn = 0 -1\n", "radial index n"),
    ("[physical]\nv1 = 20\n[grid]\nr_max = 1e-4\n[sweep]\ndelta = 0.1 0.001 0.2\n",
     "r_max = 0.0001 is not above r_min = 1e-06/delta at delta = 0.001"),
], ids=["delta", "alpha", "n", "r_max-at-one-delta"])
def test_bad_value_inside_an_axis_exits_2(tmp_path, capsys, body, named):
    cfg = write_config(tmp_path, body)
    for command in ("energy", "entropy"):
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("command", ["entropy", "figures"])
def test_unsolvable_bound_state_exits_4_naming_it(tmp_path, command):
    # bound in closed form, but decaying within r_min = 1e-6/delta: no grid can sample it
    cfg = write_config(tmp_path, "[physical]\nv1 = 1e12\n")
    proc = subprocess.run([sys.executable, "-m", "abring", command, "--config", str(cfg),
                           "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    line, = proc.stderr.splitlines()
    assert line.startswith("numerical failure: cannot solve the state at ")
    assert "v1=1e+12" in line and "n=0 m=0" in line and "r_max must exceed r_min" in line


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


@pytest.mark.parametrize("axes,named", [
    ("v1 = 20 30\nn,m = 0,0 1,0\n", "'v1'"),
    ("n,m = 0,0 1,0\n", "'n,m'"),
    ("b_field,alpha = 1,0.5 2,0.5\n", "'b_field,alpha'"),
    ("delta = 0.1\n", "'delta'"),
], ids=["non-panel-then-zipped", "zipped", "zipped-panel-keys", "single-value-non-panel"])
def test_figures_refuse_axes_they_cannot_honour(tmp_path, capsys, axes, named):
    cfg = write_config(tmp_path, FIGURES + "\n[sweep]\n" + axes)
    outdir = tmp_path / "figs"
    assert run(["figures", "--config", cfg, "--out", outdir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: figures cannot honour sweep axis " + named)
    assert not outdir.exists()


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


def test_check_battery_passes(capsys):
    assert cli.main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines)


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
    (params, _qn), = cli.expand_sweep(cli.parse_config(cfg))
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
    assert [params.xi for params, _q in points] == [0.25, 0.5]


def test_parse_config_defaults(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "[physical]\ndelta = 0.2\n"))
    assert cfg.r_points == 4096 and cfg.k_points == 4096
    assert cfg.r_max is None and cfg.k_max is None
    assert cfg.out_format == "csv"
    (params, qn), = cli.expand_sweep(cfg)
    assert params.delta == 0.2 and params.v1 == 1.0
    assert params.mass == 1.0 and params.hbar == 1.0
    assert qn.n == 0 and qn.m == 0
