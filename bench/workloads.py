"""Seeded workloads for the abring CLI benchmark and the checks on their outputs.

Each workload writes its INI input(s) from one seed, computes what the
outputs must be with the independent reference (before any timing), and
after every round checks the files the CLI wrote. A check never compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

BBM_BOUND = 1.0 + math.log(math.pi)
FIGURE_PANELS = (("fig1a", "b_field", "B", (1.0, 2.0, 4.0)),
                 ("fig1b", "alpha", "alpha", (0.1, 0.2, 0.4)),
                 ("fig1c", "phi_ab", "phi", (1.0, 2.0, 4.0)))
FIGURE_DENSITY_TOL = 1e-7     # max |rho_prog - rho_ref| / max rho_ref on a fig2 curve
FIGURE_POTENTIAL_TOL = 1e-9   # |V_prog - V_ref| / sum of |terms| on a fig1 curve
FIGURE_MASS_TOL = 1e-6        # |trapezoid integral - 1| on fig2/figk curves
FAULT_B_RESIDUAL = 1e-4       # norm_residual_k above this is a truncated momentum window


@dataclass
class Command:
    """One CLI invocation of a round; paths are inside the workload directory."""

    args: list[str]
    config: Path
    stdout: Path
    stderr: Path


@dataclass
class Outcome:
    """Result of checking one round's outputs."""

    attempted: int = 0    # solves checked: entropy rows of bound states, energy rows, curves
    failed: int = 0
    problems: list[str] = field(default_factory=list)   # anything that makes correct false
    faults: Counter = field(default_factory=Counter)


def _fmt(x) -> str:
    return repr(float(x)) if not isinstance(x, int) else str(x)


def write_ini(path: Path, physical: dict, sweep: list[tuple[tuple[str, ...], list[tuple]]],
              quantum: dict | None = None) -> None:
    lines = ["[physical]"] + [f"{k} = {_fmt(v)}" for k, v in physical.items()]
    lines += ["", "[quantum]"] + [f"{k} = {v}" for k, v in (quantum or {"n": 0, "m": 0}).items()]
    if sweep:
        lines += ["", "[sweep]"]
        for names, values in sweep:
            tokens = " ".join(",".join(_fmt(x) for x in v) for v in values)
            lines.append(f"{','.join(names)} = {tokens}")
    path.write_text("\n".join(lines) + "\n")


def expand(physical: dict, sweep, quantum: dict | None = None) -> list[dict]:
    """Sweep points in the CLI's documented order: axes cross in declaration
    order, the first outermost; a comma-joined axis is zipped."""
    base = dict(physical, **(quantum or {"n": 0, "m": 0}))
    rows = []
    for combo in itertools.product(*(values for _, values in sweep)):
        point = dict(base)
        for (names, _), value in zip(sweep, combo):
            point.update(zip(names, value))
        rows.append(point)
    return rows


def state_of(point: dict) -> ref.State:
    keys = ("delta", "v1", "b_field", "alpha", "mass", "hbar")
    kw = {k: float(point[k]) for k in keys if k in point}
    kw.update(n=int(point["n"]), m=int(point["m"]))
    if "phi_ab" in point:
        return ref.State.with_phi(float(point["phi_ab"]), **kw)
    return ref.State(xi=float(point.get("xi", 0.0)), **kw)


def close(a: float, b: float, rel: float = 2e-9) -> bool:
    """Equality up to the CLI's %.10g echo of an input value."""
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def reference_entropy(state: ref.BoundState) -> ref.EntropyRef:
    """Reference entropies with their own convergence and 2F1 spot check enforced."""
    st, sp = state.st, state.sp
    out = state.entropies()
    if max(out.change_r, out.change_k) > ref.REF_CONVERGED:
        raise RuntimeError(f"reference not converged for {st}: {out}")
    gap = ref.check_series_against_mpmath(st, sp, state.r_max)
    if gap > 1e-10:
        raise RuntimeError(f"scipy 2F1 disagrees with mpmath by {gap:.1e} for {st}")
    return out


class Workload:
    name = ""   # as listed in BENCHMARK.json, which also says why each was chosen

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.src = src
        self.commands: list[Command] = []

    def _command(self, tag: str, args: list[str]) -> Command:
        cfg = self.dir / f"{tag}.ini"
        cmd = Command([args[0], "--config", str(cfg), *args[1:]], cfg,
                      self.dir / f"{tag}.out", self.dir / f"{tag}.err")
        self.commands.append(cmd)
        return cmd

    def outputs(self) -> list[Path]:
        return [p for c in self.commands for p in (c.stdout, c.stderr)]

    def reset(self) -> None:
        """Remove the previous round's outputs before a new round."""

    def check(self) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------- entropy tables

TABLE1 = ({"mass": 1.0, "hbar": 1.0, "delta": 0.1, "v1": 20.0, "alpha": 1.0},
          [(("n", "m"), [(0, 0), (1, 0), (1, 1)]),
           (("b_field", "phi_ab"), [(1.0, 1.0), (2.0, 1.0), (4.0, 1.0), (1.0, 2.0), (1.0, 4.0)])])
TABLE2 = ({"mass": 1.0, "hbar": 1.0, "delta": 0.1, "v1": 20.0, "b_field": 1.0, "phi_ab": 1.0},
          [(("n", "m"), [(0, 0), (1, 0), (1, 1)]),
           (("alpha",), [(0.1,), (0.2,), (0.4,)])])
STATE_KEYS = ("n", "m", "delta", "v1", "b_field", "phi_ab", "alpha")


class EntropyWorkload(Workload):
    """Entropy sweeps whose every bound row is compared with the reference."""

    json_output = False

    def __init__(self, seed: int, workdir: Path, src: Path):
        super().__init__(seed, workdir, src)
        self.expected = {}   # stdout path -> [(point, state, spectrum, EntropyRef | None)]

    def _add_sweep(self, tag: str, physical: dict, sweep) -> None:
        write_ini(self.dir / f"{tag}.ini", physical, sweep)
        args = ["entropy"] + (["--format", "json"] if self.json_output else [])
        cmd = self._command(tag, args)
        expected = []
        for point in expand(physical, sweep):
            st = state_of(point)
            sp = ref.spectrum(st)
            want = reference_entropy(ref.BoundState(st, sp)) if sp.exists else None
            expected.append((point, st, sp, want))
        self.expected[cmd.stdout] = expected

    def _add_states(self, tag: str, states: list[dict]) -> None:
        self._add_sweep(tag, {"mass": 1.0, "hbar": 1.0},
                        [(STATE_KEYS, [tuple(s[k] for k in STATE_KEYS) for s in states])])

    def _rows(self, path: Path) -> list[dict]:
        text = path.read_text()
        if self.json_output:
            return [dict(r, **(r["report"] or {})) for r in json.loads(text)]
        lines = text.splitlines()
        header = lines[0].split(",")
        if header != ["n", "m", "B", "phi_ab", "alpha", "s_r", "s_k", "sum", "pass"]:
            raise ValueError(f"unexpected header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            row = {"n": int(cells["n"]), "m": int(cells["m"]), "b_field": float(cells["B"]),
                   "phi_ab": float(cells["phi_ab"]), "alpha": float(cells["alpha"]),
                   "report": None if cells["pass"] == "skipped" else True}
            if row["report"]:
                row.update(s_r=float(cells["s_r"]), s_k=float(cells["s_k"]),
                           sum=float(cells["sum"]), **{"pass": cells["pass"] == "true"})
            rows.append(row)
        return rows

    def check(self) -> Outcome:
        out = Outcome()
        for cmd in self.commands:
            expected = self.expected[cmd.stdout]
            try:
                rows = self._rows(cmd.stdout)
            except (OSError, ValueError, KeyError) as exc:
                out.problems.append(f"{cmd.stdout.name}: unreadable output ({exc})")
                continue
            if len(rows) != len(expected):
                out.problems.append(f"{cmd.stdout.name}: {len(rows)} rows, expected {len(expected)}")
                continue
            for row, (point, st, sp, want) in zip(rows, expected):
                self._check_row(out, cmd.stdout.name, row, point, st, sp, want)
        return out

    def _check_row(self, out: Outcome, where: str, row: dict, point: dict,
                   st: ref.State, sp: ref.Spectrum, want) -> None:
        phi = st.xi * 2.0 * math.pi * st.hbar
        echo_ok = (row["n"] == st.n and row["m"] == st.m and close(row["b_field"], st.b_field)
                   and close(row["phi_ab"], phi) and close(row["alpha"], st.alpha))
        if not echo_ok:
            out.problems.append(f"{where}: row {row} does not echo point {point}")
            return
        if want is None:
            if row["report"] is not None:
                out.problems.append(f"{where}: {point} has no bound state but was solved")
            return
        if row["report"] is None:
            out.problems.append(f"{where}: {point} is bound (reference) but was skipped")
            return
        out.attempted += 1
        total = row["s_r"] + row["s_k"]
        flag_ok = row["pass"] == (total >= BBM_BOUND - 1e-3) and abs(row["sum"] - total) <= 2e-6
        d_r, d_k = abs(row["s_r"] - want.s_r), abs(row["s_k"] - want.s_k)
        if d_r <= ref.ENTROPY_TOL and d_k <= ref.ENTROPY_TOL and flag_ok:
            return
        out.failed += 1
        fault = self.attribute(st, row, d_k) if flag_ok else None
        detail = (f"{where}: n={st.n} m={st.m} delta={st.delta:.6g} v1={st.v1:.6g} "
                  f"B={st.b_field:.6g}: S_r {row['s_r']:.6f} vs {want.s_r:.6f}, "
                  f"S_k {row['s_k']:.6f} vs {want.s_k:.6f}")
        if fault is None or not self.known_fault(point):
            out.problems.append(f"unexpected failure (fault {fault}) {detail}")
        else:
            out.faults[fault] += 1
            print(f"fault {fault}: {detail}", file=sys.stderr)

    def known_fault(self, point: dict) -> bool:
        """Only excited-states holds states the program is known to get wrong."""
        return False

    def attribute(self, st: ref.State, row: dict, d_k: float) -> str | None:
        return None


class PaperTables(EntropyWorkload):
    name = "paper-tables"

    def __init__(self, seed: int, workdir: Path, src: Path):
        super().__init__(seed, workdir, src)
        self._add_sweep("table1", *TABLE1)
        self._add_sweep("table2", *TABLE2)
        draws = []
        while len(draws) < 6:
            point = {"n": int(self.rng.integers(0, 4)), "m": int(self.rng.integers(0, 3)),
                     "delta": self.rng.uniform(0.05, 0.2), "v1": self.rng.uniform(10.0, 30.0),
                     "b_field": self.rng.uniform(0.5, 4.0), "phi_ab": self.rng.uniform(0.0, 4.0),
                     "alpha": self.rng.uniform(0.2, 1.0)}
            if ref.spectrum(state_of(point)).exists:
                draws.append(point)
        self._add_states("draws", draws)


# Fixed states the program gets wrong today (see README): the first two
# lose the 2F1 series to cancellation (fault A); the third loses 1.6% of
# its momentum density outside the automatic window, and the fourth, barely
# bound, gets a position grid too coarse for that window (both fault B).
KNOWN_FAULT_STATES = (
    {"n": 9, "m": 0, "delta": 0.02, "v1": 20.0, "b_field": 0.0, "phi_ab": 0.0, "alpha": 1.0},
    {"n": 10, "m": 0, "delta": 0.011, "v1": 20.0, "b_field": 0.0, "phi_ab": 0.0, "alpha": 1.0},
    {"n": 3, "m": 0, "delta": 0.1, "v1": 20.0, "b_field": 0.0, "phi_ab": 0.0, "alpha": 1.0},
    {"n": 4, "m": 0, "delta": 0.02, "v1": 2.283, "b_field": 0.44, "phi_ab": 0.6, "alpha": 0.6},
)
# Seeded draws must not depend on luck, so draws that reach the faults'
# mechanisms are redrawn (each is a property of the input, computed here):
SERIES_LOSS_MAX = 1e-3    # 2F1 power-series rounding bound, relative to peak |psi|
WINDOW_LOSS_MAX = 1e-6    # momentum mass outside the automatic window 40*delta*max(1, lam)
RESOLUTION_MAX = 0.25     # k_max*dr/pi of the automatic grids: aliases enter near 1, and the
                          # position-side error grows with it (5.5e-5 nats at 0.33)
CLI_POINTS = 4096         # the CLI's default r_points


def series_rounding_bound(state: ref.BoundState) -> float:
    """Rounding bound of summing 2F1(-n, a; c; s) term by term, weighted by the
    envelope and relative to the peak of |psi| (a property of the input)."""
    st, sp = state.st, state.sp
    r = np.linspace(1e-6 / st.delta, state.r_max, 4096)
    s = np.exp(-st.delta * r)
    envelope = ref.envelope(st, sp, r)
    abs_terms = ref.series(st, sp, -s)     # all terms positive: the sum of |terms|
    peak = np.max(np.abs(ref.series(st, sp, s) * envelope))
    return float(np.max(2.2e-16 * (st.n + 1) * abs_terms * envelope) / peak)


def grid_resolution(state: ref.BoundState, window: float) -> float:
    """k_max*dr/pi for the program's automatic grids, over-estimated.

    The program stops its extent where the density falls below 1e-14 of its
    peak, growing by 25% steps from at least the decay estimate
    ln(1e16)/(2 delta lam); Simpson weights alias the momentum peak to pi/dr.
    """
    st, sp = state.st, state.sp
    r = np.linspace(0.0, state.r_max, 20001)
    rho = state.psi(r) ** 2
    extent = r[np.flatnonzero(rho >= 1e-14 * rho.max())[-1]]
    r_max = max(1.25 * extent, math.log(1e16) / (2.0 * st.delta * sp.lam))
    return window * r_max / (CLI_POINTS - 1) / math.pi


class ExcitedStates(EntropyWorkload):
    name = "excited-states"
    json_output = True

    def __init__(self, seed: int, workdir: Path, src: Path):
        super().__init__(seed, workdir, src)
        draws = []
        while len(draws) < 8:
            point = {"n": int(self.rng.integers(0, 13)), "m": int(self.rng.integers(0, 3)),
                     "delta": self.rng.uniform(0.01, 0.05),
                     "v1": math.exp(self.rng.uniform(0.0, math.log(20.0))),
                     "b_field": self.rng.uniform(0.1, 0.5), "phi_ab": self.rng.uniform(0.0, 2.0),
                     "alpha": self.rng.uniform(0.5, 1.0)}
            sp = ref.spectrum(state_of(point))
            if not sp.exists:
                continue
            state = ref.BoundState(state_of(point), sp)
            window = 40.0 * state.st.delta * max(1.0, sp.lam)
            if (series_rounding_bound(state) <= SERIES_LOSS_MAX
                    and grid_resolution(state, window) <= RESOLUTION_MAX
                    and state.mass_outside(window) <= WINDOW_LOSS_MAX):
                draws.append(point)
        self._add_states("states", list(KNOWN_FAULT_STATES) + draws)

    def known_fault(self, point: dict) -> bool:
        return any(all(point[k] == f[k] for k in STATE_KEYS) for f in KNOWN_FAULT_STATES)

    def attribute(self, st: ref.State, row: dict, d_k: float) -> str | None:
        """Fault A if the program's own eigenfunction has the wrong node count,
        else fault B if its momentum window lost mass or S_k is off."""
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        from abring import model, wavefunction
        params = model.ModelParams(mass=st.mass, hbar=st.hbar, delta=st.delta, v1=st.v1,
                                   b_field=st.b_field, xi=st.xi, alpha=st.alpha)
        psi = wavefunction.radial_eigenfunction(params, model.QuantumNumbers(st.n, st.m))
        if wavefunction.count_radial_nodes(psi) != st.n:
            return "A"
        if row["norm_residual_k"] > FAULT_B_RESIDUAL or d_k > ref.ENTROPY_TOL:
            return "B"
        return None


# ---------------------------------------------------------------- energy scan

ENERGY_HEADER = "n,m,B,xi,alpha,delta,v1,energy,epsilon,exists"


def _printed_tol(x: np.ndarray) -> np.ndarray:
    """1e-10 relative plus half a unit in the 10th significant digit (%.10g)."""
    mag = np.abs(x)
    with np.errstate(divide="ignore"):
        ulp = 10.0 ** (np.floor(np.log10(np.where(mag > 0, mag, 1.0))) - 9)
    return 1e-10 * mag + 0.5 * ulp


class EnergyScan(Workload):
    name = "energy-scan"

    def __init__(self, seed: int, workdir: Path, src: Path):
        super().__init__(seed, workdir, src)
        # one uniform draw inside each of k equal strata, so the share of
        # bound rows, and with it the work, barely moves between seeds
        axis = lambda lo, hi, k: (lo + (hi - lo) * (np.arange(k) + self.rng.random(k)) / k).tolist()
        sweep = [(("n",), [(n,) for n in range(4)]),
                 (("m",), [(m,) for m in range(-1, 3)]),
                 (("b_field",), [(v,) for v in axis(0.0, 3.0, 8)]),
                 (("phi_ab",), [(v,) for v in axis(-3.0, 3.0, 6)]),
                 (("alpha",), [(v,) for v in axis(0.2, 1.5, 5)]),
                 (("delta",), [(v,) for v in axis(0.02, 0.5, 4)]),
                 (("v1",), [(v,) for v in axis(0.5, 40.0, 6)])]
        physical = {"mass": 1.0, "hbar": 1.0}
        write_ini(self.dir / "scan.ini", physical, sweep)
        self._command("scan", ["energy"])
        grids = np.meshgrid(*(np.array([v[0] for v in values], dtype=float) for _, values in sweep),
                            indexing="ij")
        self.n, self.m, self.b, phi, self.alpha, self.delta, self.v1 = (g.ravel() for g in grids)
        self.xi = phi / (2.0 * math.pi)
        b0, b1, b2, eta = ref.couplings(self.delta, self.v1, self.b, self.xi, self.alpha, self.m)
        self.eps, nu = ref.solve_epsilon(b0, b1, b2, eta, self.n)
        self.energy = -(self.delta**2) * self.eps / 2.0
        # forward error of any double-precision solution: rounding of the
        # couplings moves lam by u*(b0 + b2 + |eta| + N^2)/(2N), and
        # eps = lam^2 - eta; it matters only for nearly unbound rows
        big_n = self.n + nu
        with np.errstate(invalid="ignore"):
            lam = np.sqrt(self.eps + eta)
        self.eps_err = 8 * np.finfo(float).eps * (
            lam * (b0 + b2 + np.abs(eta) + big_n**2) / big_n + np.abs(eta))

    def check(self) -> Outcome:
        out = Outcome()
        path = self.commands[0].stdout
        lines = path.read_text().splitlines()
        if not lines or lines[0] != ENERGY_HEADER:
            out.problems.append(f"{path.name}: missing header")
            return out
        rows = len(lines) - 1
        out.attempted = rows
        if rows != self.n.size:
            out.problems.append(f"{path.name}: {rows} rows, expected {self.n.size}")
            return out
        cells = [line.split(",") for line in lines[1:]]
        exists = np.array([c[9] == "true" for c in cells])
        echo = np.array([[float(x) for x in c[:7]] for c in cells])
        want = np.stack([self.n, self.m, self.b, self.xi, self.alpha, self.delta, self.v1], axis=1)
        echo_bad = np.abs(echo - want) > _printed_tol(want)
        bound = np.isfinite(self.eps)
        got = np.array([[float(c[7]), float(c[8])] if c[9] == "true" else [np.nan, np.nan]
                        for c in cells])
        with np.errstate(invalid="ignore"):
            e_tol = _printed_tol(self.energy) + self.delta**2 / 2.0 * self.eps_err
            e_bad = ~(np.abs(got[:, 0] - self.energy) <= e_tol)
            eps_bad = ~(np.abs(got[:, 1] - self.eps) <= _printed_tol(self.eps) + self.eps_err)
        wrong = echo_bad.any(axis=1) | (exists != bound) | (bound & (e_bad | eps_bad))
        out.failed = int(wrong.sum())
        for i in np.flatnonzero(wrong)[:5]:
            out.problems.append(f"{path.name}: row {i + 1} {lines[i + 1]!r}; oracle epsilon "
                                f"{self.eps[i]!r}")
        return out


# ---------------------------------------------------------------- figures

class Figures(Workload):
    name = "figures"

    def __init__(self, seed: int, workdir: Path, src: Path):
        super().__init__(seed, workdir, src)
        rng = self.rng
        self.base = {"mass": 1.0, "hbar": 1.0, "delta": rng.uniform(0.08, 0.12),
                     "v1": rng.uniform(15.0, 25.0), "b_field": rng.uniform(0.5, 2.0),
                     "phi_ab": rng.uniform(0.5, 2.0), "alpha": rng.uniform(0.5, 1.0)}
        # m = 0 keeps all nine panel values bound over this domain, so every
        # seed writes 27 curves and does the same work
        self.quantum = {"n": int(rng.integers(0, 2)), "m": 0}
        write_ini(self.dir / "base.ini", self.base, [], self.quantum)
        self.figdir = self.dir / "curves"
        self._command("base", ["figures", "--out", str(self.figdir)])
        self.curves = []     # (fig1 id, label, state, spectrum)
        for fig_id, key, tag, values in FIGURE_PANELS:
            for value in values:
                st = state_of(dict(self.base, **self.quantum, **{key: value}))
                self.curves.append((fig_id, f"{tag}{value:.10g}", st, ref.spectrum(st)))

    def outputs(self) -> list[Path]:
        return super().outputs() + sorted(self.figdir.glob("*.dat"))

    def reset(self) -> None:
        for path in self.figdir.glob("*.dat"):
            path.unlink()

    def check(self) -> Outcome:
        out = Outcome()
        notes = self.commands[0].stderr.read_text()
        expected = set()
        for fig_id, label, st, sp in self.curves:
            names = [f"{fig_id}_{label}.dat"]
            fig2, figk = (f"{fig_id.replace('fig1', p)}_{label}.dat" for p in ("fig2", "figk"))
            if sp.exists:
                names += [fig2, figk]
            elif f"{fig2[:-4]}: no bound state" not in notes:
                out.problems.append(f"{fig2}: unbound (reference) but no note on stderr")
            expected.update(names)
            for name in names:
                out.attempted += 1
                problem = self._check_curve(self.figdir / name, st, sp)
                if problem:
                    out.failed += 1
                    out.problems.append(f"{name}: {problem}")
        written = {p.name for p in self.figdir.glob("*.dat")}
        if written != expected:
            out.problems.append(f"curve files differ: extra {sorted(written - expected)}, "
                                f"missing {sorted(expected - written)}")
        return out

    def _check_curve(self, path: Path, st: ref.State, sp: ref.Spectrum) -> str | None:
        try:
            data = np.loadtxt(path, comments="#")
        except (OSError, ValueError) as exc:
            return f"unreadable ({exc})"
        x, y = data[:, 0], data[:, 1]
        kind = path.name[:4]
        if kind == "fig1":
            v, scale = ref.effective_potential(st, x)
            err = float(np.max(np.abs(y - v) / scale))
            return None if err <= FIGURE_POTENTIAL_TOL else f"potential off by {err:.1e}"
        mass = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))
        if abs(mass - 1.0) > FIGURE_MASS_TOL:
            return f"integrates to {mass:.9f}"
        if kind == "fig2":
            rho = ref.BoundState(st, sp).density(x)
            err = float(np.max(np.abs(y - rho)) / np.max(rho))
            return None if err <= FIGURE_DENSITY_TOL else f"density off by {err:.1e}"
        return None


WORKLOADS = {w.name: w for w in (PaperTables, EnergyScan, Figures, ExcitedStates)}
