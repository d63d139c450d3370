"""Command-line front end: energy/entropy sweeps, figure data, self-check.

Config files are flat INI ([physical], [quantum], [grid], [sweep],
[output]); every key is optional and falls back to documented defaults.
Sweep axes cross in declaration order; a comma-joined key names a zipped
parameter group, e.g.

    [sweep]
    n,m = 0,0 1,0 1,1
    b_field,phi_ab = 1,1 2,1 4,1 1,2 1,4

gives 3 x 5 = 15 rows. Exit codes: 0 ok, 2 config error, 3 no computable
state anywhere in the sweep, 4 numerical non-convergence. ABRING_THREADS,
a positive integer, caps worker threads for sweep evaluation (output order
is deterministic regardless).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import entropy, model
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
    r_points: int = 4096
    k_points: int = 4096
    r_max: float | None = None
    k_max: float | None = None
    sweep: list = field(default_factory=list)      # [(names tuple, [value tuples])]
    out_format: str = "csv"
    out_path: str = "-"
    threads: int = 1                               # from ABRING_THREADS, set by main


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from None


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
        for key, raw in parser.items("sweep"):
            names = tuple(name.strip() for name in key.split(","))
            for name in names:
                if name not in SWEEPABLE:
                    raise ConfigError(f"sweep axis references unknown parameter {name!r}")
            if "xi" in names and "phi_ab" in names:
                raise ConfigError("a sweep axis cannot bind both xi and phi_ab")
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


def _build_point(cfg: RunConfig, overrides: dict):
    """ModelParams + QuantumNumbers for one sweep point."""
    phys = dict(cfg.physical)
    quantum = {"n": cfg.n, "m": cfg.m}
    for key, value in overrides.items():
        if key == "xi":
            phys.pop("phi_ab", None)   # sweep overrides the other flux form
        elif key == "phi_ab":
            phys.pop("xi", None)
        (quantum if key in QUANTUM_KEYS else phys)[key] = value
    phi_ab = phys.pop("phi_ab", None)
    try:
        params = model.ModelParams(**phys)
        if phi_ab is not None:
            params = params.with_flux(phi_ab)
        qn = model.QuantumNumbers(quantum["n"], quantum["m"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return params, qn


def expand_sweep(cfg: RunConfig):
    """All sweep points in lexicographic axis order: [(overrides, params, qn)]."""
    points = [{}]
    for names, values in cfg.sweep:
        points = [dict(p, **dict(zip(names, v))) for p in points for v in values]
    return [(p, *_build_point(cfg, p)) for p in points]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _thread_count() -> int:
    raw = os.environ.get("ABRING_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"ABRING_THREADS = {raw!r} is not a positive integer")
    return workers


def _map_points(fn, cfg: RunConfig):
    """fn over every sweep point, on cfg.threads threads; results in sweep order."""
    points = expand_sweep(cfg)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(fn, points))
    return [fn(p) for p in points]


def cmd_energy(cfg: RunConfig, out_path: str | None = None,
               out_format: str | None = None) -> int:
    """One row per sweep point: closed-form energy or a graceful non-existence."""
    def solve(point):
        overrides, params, qn = point
        report = model.energy_closed_form(params, qn)
        return overrides, params, qn, report

    rows = _map_points(solve, cfg)
    out_format = out_format or cfg.out_format
    if out_format == "csv":
        lines = [ENERGY_HEADER]
        for overrides, params, qn, rep in rows:
            energy_s = _fmt(rep.energy) if rep.exists else ""
            eps_s = _fmt(rep.epsilon) if rep.exists else ""
            lines.append(",".join([
                str(qn.n), str(qn.m), _fmt(params.b_field), _fmt(params.xi),
                _fmt(params.alpha), _fmt(params.delta), _fmt(params.v1),
                energy_s, eps_s, "true" if rep.exists else "false",
            ]))
        _write(out_path or cfg.out_path, "\n".join(lines) + "\n")
    else:
        payload = [{
            "n": qn.n, "m": qn.m, "b_field": params.b_field, "xi": params.xi,
            "alpha": params.alpha, "delta": params.delta, "v1": params.v1,
            "energy": rep.energy if rep.exists else None,
            "epsilon": rep.epsilon if rep.exists else None,
            "exists": rep.exists, "reason": rep.reason,
        } for overrides, params, qn, rep in rows]
        _write(out_path or cfg.out_path, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_entropy(cfg: RunConfig, out_path: str | None = None,
                out_format: str | None = None) -> int:
    """Entropy table over the sweep; skips unbound points, exit 3 if all are."""
    def solve(point):
        overrides, params, qn = point
        try:
            report = entropy.entropy_pipeline(params, qn, cfg.r_points, cfg.k_points,
                                              cfg.r_max, cfg.k_max)
        except model.NoBoundStateError:
            report = None
        return overrides, params, qn, report

    rows = _map_points(solve, cfg)
    if all(rep is None for *_ignored, rep in rows):
        print("error: no sweep point has a bound state", file=sys.stderr)
        return 3

    out_format = out_format or cfg.out_format
    if out_format == "csv":
        lines = [ENTROPY_HEADER]
        for overrides, params, qn, rep in rows:
            phi_ab = params.xi * params.flux_quantum
            head = [str(qn.n), str(qn.m), _fmt(params.b_field), _fmt(phi_ab),
                    _fmt(params.alpha)]
            if rep is None:
                lines.append(",".join(head + ["", "", "", "skipped"]))
            else:
                lines.append(",".join(head + [
                    f"{rep.s_r:.6f}", f"{rep.s_k:.6f}", f"{rep.sum:.6f}",
                    "true" if rep.passed else "false",
                ]))
        _write(out_path or cfg.out_path, "\n".join(lines) + "\n")
    else:
        payload = [{
            "n": qn.n, "m": qn.m, "b_field": params.b_field,
            "phi_ab": params.xi * params.flux_quantum, "alpha": params.alpha,
            "report": rep.to_json_dict() if rep is not None else None,
        } for overrides, params, qn, rep in rows]
        _write(out_path or cfg.out_path, json.dumps(payload, indent=2) + "\n")
    return 0


FIGURE_PANELS = (
    ("fig1a", "b_field", "B", (1.0, 2.0, 4.0)),
    ("fig1b", "alpha", "alpha", (0.1, 0.2, 0.4)),
    ("fig1c", "phi_ab", "phi", (1.0, 2.0, 4.0)),
)


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
    override a panel's default variation values. Curves whose state is
    unbound are skipped with a note on stderr.
    """
    directory = Path(out_dir or (cfg.out_path if cfg.out_path != "-" else "figures_out"))
    directory.mkdir(parents=True, exist_ok=True)
    _, qn = _build_point(cfg, {})
    overrides = {names[0]: [v[0] for v in values]
                 for names, values in cfg.sweep if len(names) == 1}
    wrote = 0
    for fig_id, param_key, tag, default_values in FIGURE_PANELS:
        if param_key == "phi_ab" and "xi" in overrides and "phi_ab" not in overrides:
            param_key = "xi"
        values = overrides.get(param_key, default_values)
        for value in values:
            params, _ = _build_point(cfg, {param_key: value})
            label = f"{tag}{_fmt(value)}"
            # panel 1: effective potential over a few screening lengths
            r = np.linspace(0.02 / params.delta, 4.0 / params.delta, 800)
            v_eff = model.effective_potential(params, qn, r)
            _write_curve(directory / f"{fig_id}_{label}.dat", params, qn, r, v_eff)
            wrote += 1
            # panels 2 and k: normalized |psi|^2 and |psi~|^2, when the state exists
            try:
                report = entropy.entropy_pipeline(params, qn, cfg.r_points, cfg.k_points,
                                                  cfg.r_max, cfg.k_max)
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
        cfg.threads = _thread_count()
        if args.command == "energy":
            return cmd_energy(cfg, args.out, args.format)
        if args.command == "entropy":
            return cmd_entropy(cfg, args.out, args.format)
        return cmd_figures(cfg, args.out)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
