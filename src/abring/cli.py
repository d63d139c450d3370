"""Command-line front end: energy/entropy sweeps, figure data, self-check.

Config files are flat INI ([physical], [quantum], [grid], [sweep],
[output]); every key is optional and falls back to documented defaults.
Sweep axes cross in declaration order, first axis outermost, and expand to
numpy columns (`Sweep`), the one sweep form of every command: `energy`
solves and formats those columns whole, `entropy` solves them row by row. A
comma-joined key names a zipped parameter group, e.g.

    [sweep]
    n,m = 0,0 1,0 1,1
    b_field,phi_ab = 1,1 2,1 4,1 1,2 1,4

gives 3 x 5 = 15 rows. Each parameter may be bound by one axis only (xi and
phi_ab count as one). Exit codes: 0 ok, 2 config error, 3 no computable
state anywhere in the sweep, 4 a bound state that cannot be solved.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import entropy, model, wavefunction
from .numerics import DomainError, NonConvergenceError

PHYSICAL_KEYS = ("mass", "hbar", "delta", "v1", "b_field", "xi", "phi_ab", "alpha")
QUANTUM_KEYS = ("n", "m")
SWEEPABLE = set(PHYSICAL_KEYS) | set(QUANTUM_KEYS)

ENERGY_HEADER = "n,m,B,xi,alpha,delta,v1,energy,epsilon,exists"
ENTROPY_HEADER = "n,m,B,phi_ab,alpha,s_r,s_k,sum,pass"


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Parsed configuration with documented defaults."""

    physical: dict = field(default_factory=dict)   # keys from PHYSICAL_KEYS
    n: int = 0
    m: int = 0
    r_points: int = wavefunction.DEFAULT_POINTS
    k_points: int = wavefunction.DEFAULT_POINTS
    r_max: float | None = None
    k_max: float | None = None
    sweep: list = field(default_factory=list)      # [(names tuple, [value tuples])]
    out_format: str = "csv"
    out_path: str = "-"


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(np.int64(raw))   # sweeps hold integers in int64 columns
    except (ValueError, OverflowError):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a 64-bit integer") from None


def parse_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()

    for section in parser.sections():
        if section not in ("physical", "quantum", "grid", "sweep", "output"):
            raise ConfigError(f"unknown section [{section}]")

    if parser.has_section("physical"):
        for key, raw in parser.items("physical"):
            if key not in PHYSICAL_KEYS:
                raise ConfigError(f"unknown [physical] key {key!r}")
            cfg.physical[key] = _parse_float("physical", key, raw)
    if "xi" in cfg.physical and "phi_ab" in cfg.physical:
        raise ConfigError("give xi or phi_ab, not both")

    if parser.has_section("quantum"):
        for key, raw in parser.items("quantum"):
            if key not in QUANTUM_KEYS:
                raise ConfigError(f"unknown [quantum] key {key!r}")
            setattr(cfg, key, _parse_int("quantum", key, raw))

    if parser.has_section("grid"):
        for key, raw in parser.items("grid"):
            if key in ("r_points", "k_points"):
                value = _parse_int("grid", key, raw)
                if value < 3:
                    raise ConfigError(f"[grid] {key} = {value} is below 3 points")
            elif key in ("r_max", "k_max"):
                value = None if raw.strip().lower() == "auto" else _parse_float("grid", key, raw)
                if value is not None and not 0.0 < value < math.inf:
                    raise ConfigError(f"[grid] {key} = {raw!r} is not a positive finite "
                                      f"number or auto")
            else:
                raise ConfigError(f"unknown [grid] key {key!r}")
            setattr(cfg, key, value)

    if parser.has_section("sweep"):
        bound = set()
        for key, raw in parser.items("sweep"):
            names = tuple(name.strip() for name in key.split(","))
            for name in names:
                if name not in SWEEPABLE:
                    raise ConfigError(f"sweep axis references unknown parameter {name!r}")
                if ("xi" if name == "phi_ab" else name) in bound:
                    raise ConfigError(f"sweep axis {key!r} binds {name!r} again "
                                      f"(xi and phi_ab count as one parameter)")
                bound.add("xi" if name == "phi_ab" else name)
            values = []
            for token in raw.split():
                parts = token.split(",")
                if len(parts) != len(names):
                    raise ConfigError(
                        f"sweep value {token!r} does not match axis {key!r}")
                values.append(tuple(
                    _parse_int("sweep", key, p) if name in QUANTUM_KEYS
                    else _parse_float("sweep", key, p)
                    for name, p in zip(names, parts)))
            if not values:
                raise ConfigError(f"sweep axis {key!r} has no values")
            cfg.sweep.append((names, values))

    if parser.has_section("output"):
        for key, raw in parser.items("output"):
            if key == "format":
                if raw not in ("csv", "json"):
                    raise ConfigError(f"unknown output format {raw!r}")
                cfg.out_format = raw
            elif key == "path":
                cfg.out_path = raw
            else:
                raise ConfigError(f"unknown [output] key {key!r}")
    return cfg


class Sweep:
    """Sweep points as rows, first axis outermost: the ModelParams fields and
    n, m are equal-length arrays, so `model.closed_form(sweep, sweep)` solves
    them all; iterating yields (params, qn) per point."""

    def __init__(self, columns: dict):
        vars(self).update(columns)

    def __iter__(self):
        cols = [getattr(self, k).tolist() for k in (*vars(model.ModelParams()), *QUANTUM_KEYS)]
        for *row, n, m in zip(*cols):
            yield model.ModelParams(*row), model.QuantumNumbers(n, m)


def expand_sweep(cfg: RunConfig) -> Sweep:
    """All sweep points as columns, checked as if each were built alone: each
    bound involves one field, so the constructors check each distinct field
    value once; then xi from phi_ab is checked finite, and r_max at the least delta."""
    shape = [len(values) for _names, values in cfg.sweep]
    index = np.indices(shape).reshape(len(shape), math.prod(shape))
    base = {**vars(model.ModelParams()), "n": cfg.n, "m": cfg.m, **cfg.physical}
    rows = np.zeros(index.shape[1], dtype=int)   # sources: key -> (value picked per row, values)
    sources = {key: (rows, [value]) for key, value in base.items()}
    for a, (names, values) in enumerate(cfg.sweep):
        for pos, name in enumerate(names):
            if name in ("xi", "phi_ab"):   # a swept flux form replaces either base form
                sources.pop("xi"), sources.pop("phi_ab", None)
            sources[name] = (index[a], [v[pos] for v in values])
    try:
        for key, (_picks, values) in sources.items():
            for value in dict.fromkeys(values):
                if key == "n":
                    model.QuantumNumbers(value)
                elif key not in ("m", "phi_ab"):
                    model.ModelParams(**{key: value})
        columns = {key: np.array(values)[picks] for key, (picks, values) in sources.items()}
        if "phi_ab" in columns:
            columns["xi"] = columns.pop("phi_ab") / (2.0 * math.pi * columns["hbar"])
            for xi in columns["xi"][~np.isfinite(columns["xi"])][:1].tolist():
                model.ModelParams(xi=xi)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    delta = min(sources["delta"][1])   # r_min = R_MIN_LENGTHS/delta is largest here
    if cfg.r_max is not None and cfg.r_max <= wavefunction.R_MIN_LENGTHS / delta:
        raise ConfigError(f"[grid] r_max = {cfg.r_max:g} is not above r_min = "
                          f"{wavefunction.R_MIN_LENGTHS:g}/delta at delta = {delta:g}")
    return Sweep(columns)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _fmt_column(values: np.ndarray) -> list:
    """Printed value per row; each distinct bit pattern (-0.0 keeps its sign) is formatted once."""
    fmt = str if values.dtype.kind == "i" else _fmt
    bits, rows = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([fmt(v) for v in bits.view(values.dtype).tolist()], object)[rows].tolist()


def cmd_energy(cfg: RunConfig, out_path: str | None = None,
               out_format: str | None = None) -> int:
    """One row per sweep point: closed-form energy or a graceful non-existence,
    solved as columns, from which CSV or JSON is written."""
    sweep = expand_sweep(cfg)
    code, energy, ds = model.closed_form(sweep, sweep)
    bound = code == 0
    echo = {k: getattr(sweep, k) for k in ("n", "m", "b_field", "xi", "alpha", "delta", "v1")}
    if (out_format or cfg.out_format) == "csv":
        cols = [_fmt_column(values) for values in echo.values()]
        ok = bound.tolist()
        cols += [[_fmt(x) if b else "" for x, b in zip(values.tolist(), ok)]
                 for values in (energy, ds.epsilon)]
        cols.append(["true" if b else "false" for b in ok])
        text = "\n".join([ENERGY_HEADER, *map(",".join, zip(*cols))])
    else:
        cols = [values.tolist() for values in (*echo.values(), energy, ds.epsilon, bound, code)]
        text = json.dumps([{**dict(zip(echo, row)), "energy": e if ok else None,
                            "epsilon": eps if ok else None, "exists": ok,
                            "reason": model.UNBOUND_REASONS[c]}
                           for *row, e, eps, ok, c in zip(*cols)], indent=2)
    _write(out_path or cfg.out_path, text + "\n")
    return 0


def _entropies(cfg: RunConfig, params: model.ModelParams,
               qn: model.QuantumNumbers) -> entropy.EntropyReport:
    """`entropy_pipeline` at one sweep point; a bound state it cannot solve is
    re-raised naming the point (exit 4)."""
    try:
        return entropy.entropy_pipeline(params, qn, cfg.r_points, cfg.k_points,
                                        cfg.r_max, cfg.k_max)
    except DomainError as exc:
        raise DomainError(f"cannot solve the state at {_echo_params(params, qn)[2:]}: "
                          f"{exc}") from exc


def cmd_entropy(cfg: RunConfig, out_path: str | None = None,
                out_format: str | None = None) -> int:
    """Entropy table over the sweep; skips unbound points, exit 3 if all are.
    A solved row keeps only its JSON report; the echoed columns are formatted
    once per distinct value, as in `cmd_energy`."""
    sweep = expand_sweep(cfg)
    reports = []
    for params, qn in sweep:
        try:
            reports.append(_entropies(cfg, params, qn).to_json_dict())
        except model.NoBoundStateError:
            reports.append(None)
    if not any(reports):
        print("error: no sweep point has a bound state", file=sys.stderr)
        return 3

    echo = {"n": sweep.n, "m": sweep.m, "b_field": sweep.b_field,
            "phi_ab": sweep.xi * (2.0 * math.pi * sweep.hbar), "alpha": sweep.alpha}
    if (out_format or cfg.out_format) == "csv":
        lines = [ENTROPY_HEADER]
        for *head, rep in zip(*map(_fmt_column, echo.values()), reports):
            tail = (["", "", "", "skipped"] if rep is None else
                    [f"{rep[k]:.6f}" for k in ("s_r", "s_k", "sum")]
                    + ["true" if rep["pass"] else "false"])
            lines.append(",".join(head + tail))
        text = "\n".join(lines)
    else:
        cols = [values.tolist() for values in echo.values()]
        text = json.dumps([{**dict(zip(echo, row)), "report": rep}
                           for *row, rep in zip(*cols, reports)], indent=2)
    _write(out_path or cfg.out_path, text + "\n")
    return 0


FIGURE_PANELS = (
    ("fig1a", "b_field", "B", (1.0, 2.0, 4.0)),
    ("fig1b", "alpha", "alpha", (0.1, 0.2, 0.4)),
    ("fig1c", "phi_ab", "phi", (1.0, 2.0, 4.0)),
)
FIGURE_AXES = ("b_field", "alpha", "phi_ab", "xi")   # sweep keys a panel can vary


def _echo_params(params: model.ModelParams, qn: model.QuantumNumbers) -> str:
    return (f"# mass={_fmt(params.mass)} hbar={_fmt(params.hbar)} "
            f"delta={_fmt(params.delta)} v1={_fmt(params.v1)} "
            f"b_field={_fmt(params.b_field)} xi={_fmt(params.xi)} "
            f"alpha={_fmt(params.alpha)} n={qn.n} m={qn.m}")


def cmd_figures(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Two-column plot data: potential, density and momentum-density curves.

    Emits fig1{a,b,c}_* (V_eff vs r, varying field / deficit / flux),
    fig2{a,b,c}_* (normalized |psi|^2 vs r; densities, not r|psi|^2) and
    figk{a,b,c}_* (normalized |psi~|^2 vs k). Sweep axes in the config
    override a panel's default variation values; any other axis is a config
    error. Curves whose state is unbound are skipped with a note on stderr.
    """
    for names, _values in cfg.sweep:
        if len(names) != 1 or names[0] not in FIGURE_AXES:
            raise ConfigError(f"figures cannot honour sweep axis {','.join(names)!r}: "
                              f"only single-key axes on {', '.join(FIGURE_AXES)}")
    axes = {names[0]: values for names, values in cfg.sweep}
    panels = []   # (fig_id, curve labels, one-axis sweep), all checked before any file
    for fig_id, key, tag, default_values in FIGURE_PANELS:
        if key == "phi_ab" and "xi" in axes and "phi_ab" not in axes:
            key = "xi"
        values = axes.get(key, [(value,) for value in default_values])
        panels.append((fig_id, [f"{tag}{_fmt(value)}" for value, in values],
                       expand_sweep(replace(cfg, sweep=[((key,), values)]))))
    directory = Path(out_dir or (cfg.out_path if cfg.out_path != "-" else "figures_out"))
    directory.mkdir(parents=True, exist_ok=True)
    wrote = 0
    for fig_id, labels, sweep in panels:
        for label, (params, qn) in zip(labels, sweep):
            # panel 1: effective potential over a few screening lengths
            r = np.linspace(0.02 / params.delta, 4.0 / params.delta, 800)
            v_eff = model.effective_potential(params, qn, r)
            _write_curve(directory / f"{fig_id}_{label}.dat", params, qn, r, v_eff)
            wrote += 1
            # panels 2 and k: normalized |psi|^2 and |psi~|^2, when the state exists
            try:
                report = _entropies(cfg, params, qn)
            except model.NoBoundStateError as exc:
                print(f"note: {fig_id.replace('fig1', 'fig2')}_{label}: no bound state "
                      f"({exc.reason}); curve skipped", file=sys.stderr)
                continue
            for prefix, rho in (("fig2", report.rho_r), ("figk", report.rho_k)):
                _write_curve(directory / f"{fig_id.replace('fig1', prefix)}_{label}.dat",
                             params, qn, rho.x, rho.values)
                wrote += 1
    print(f"wrote {wrote} curve files to {directory}", file=sys.stderr)
    return 0


def _write_curve(path: Path, params, qn, x, y) -> None:
    lines = [_echo_params(params, qn)]
    lines += [f"{xi:.10e} {yi:.10e}" for xi, yi in zip(x, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def cmd_check() -> int:
    """Quick self-check battery (a fast subset of the acceptance properties)."""
    from . import checks
    return checks.run_battery()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="abring",
        description="Bound states and information entropies of a flux-threaded "
                    "screened-Coulomb ring with a conical defect.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("energy", "closed-form spectrum over a sweep"),
                       ("entropy", "position/momentum entropies and uncertainty check"),
                       ("figures", "emit plot data files"),
                       ("check", "run the built-in verification battery")):
        p = sub.add_parser(name, help=text)
        if name != "check":
            p.add_argument("--config", required=True, help="INI config file")
            p.add_argument("--out", default=None, help="output path (default: config or stdout)")
        if name in ("energy", "entropy"):
            p.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)

    if args.command == "check":
        return cmd_check()
    try:
        cfg = parse_config(args.config)
        if args.command == "energy":
            return cmd_energy(cfg, args.out, args.format)
        if args.command == "entropy":
            return cmd_entropy(cfg, args.out, args.format)
        return cmd_figures(cfg, args.out)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NonConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
