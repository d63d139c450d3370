"""Benchmark of the abring CLI over four seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

Workloads: paper-tables, energy-scan, figures, excited-states (see README.md).
The run writes its inputs from the seed, computes the expected outputs with
the independent reference in reference.py, then repeats whole rounds of the
workload's CLI commands, each in a fresh process, until --seconds have
passed. Every round's outputs are checked. The last line of stdout is one
JSON object: correct, attempted, failed, and the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_CODE = "import sys; from abring import cli; cli.expand_sweep(cli.parse_config(sys.argv[1]))"
MIN_SETUP_SAMPLES = 7


class Launcher:
    """Runs children through launcher.py so their peak RSS excludes this process."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout: Path | None = None,
            stderr: Path | None = None) -> tuple[float, float, int]:
        """Run argv to completion: (wall seconds, peak RSS in MB, exit code)."""
        request = {"argv": argv, "stdout": stdout and str(stdout), "stderr": stderr and str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        reply = json.loads(reply)
        return reply["wall"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Round:
    wall: float
    setup: float          # set-up sample taken just before the round
    rss: float
    output_bytes: int
    outcome: workloads.Outcome
    trace: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: workloads.Workload, launcher: Launcher, trace: bool):
        self.wl = workload
        self.launcher = launcher
        self.trace = trace
        self.problems: list[str] = []
        self._checked: tuple[str, workloads.Outcome] | None = None

    def setup_sample(self) -> float:
        """Fresh interpreters importing abring and parsing and expanding each config."""
        total = 0.0
        for cmd in self.wl.commands:
            took, _, code = self.launcher.run([sys.executable, "-c", SETUP_CODE, str(cmd.config)])
            if code != 0:
                self.problems.append(f"setup of {cmd.config.name} exited {code}")
            total += took
        return total

    def round(self) -> Round:
        setup = self.setup_sample()
        self.wl.reset()
        wall, rss, traces = 0.0, 0.0, []
        for i, cmd in enumerate(self.wl.commands):
            if self.trace:
                trace_file = self.wl.dir / f"trace{i}.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *cmd.args]
            else:
                argv = [sys.executable, "-m", "abring", *cmd.args]
            took, peak, code = self.launcher.run(argv, cmd.stdout, cmd.stderr)
            if code != 0:
                tail = cmd.stderr.read_text(errors="replace")[-400:]
                self.problems.append(f"abring {cmd.args[0]} exited {code}: {tail}")
            wall += took
            rss = max(rss, peak)
            if self.trace:
                traces.append(json.loads(trace_file.read_text()))
        outputs = self.wl.outputs()
        digest = hashlib.sha256()
        for path in outputs:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        key = digest.hexdigest()
        if self._checked is None or self._checked[0] != key:   # identical bytes, same verdict
            self._checked = (key, self.wl.check())
        outcome = self._checked[1]
        size = sum(p.stat().st_size for p in outputs)
        return Round(wall, setup, rss, size, outcome, merge_traces(traces) if traces else {})


def merge_traces(traces: list[dict]) -> dict:
    stats: dict[str, list] = {}
    for t in traces:
        for name, (calls, total, self_s, work) in t["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0, 0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
            agg[3] += work
    return {"import_s": sum(t["import_s"] for t in traces), "stats": stats,
            "pipeline_s": [d for t in traces for d in t["durations"]["entropy.entropy_pipeline"]]}


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solves_per_s": "solves/s", "peak_rss_mb": "MB"}


def end_to_end(rounds: list[Round], setups: list[float]) -> dict:
    """Medians over rounds. solves_per_s pairs each round with the setup
    sample taken just before it, so slow drifts of the machine cancel."""
    values = {"wall_s": statistics.median(r.wall for r in rounds),
              "setup_s": statistics.median(setups),
              "solves_per_s": statistics.median(r.outcome.attempted / (r.wall - r.setup)
                                                for r in rounds),
              "peak_rss_mb": statistics.median(r.rss for r in rounds)}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


MODULE_NAMES = ("model", "specfun", "wavefunction", "spectral", "entropy", "numerics")


def layer_values(r: Round) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round."""
    stats = r.trace["stats"]
    get = lambda name, i: stats.get(name, [0, 0.0, 0.0, 0])[i]
    solves = max(r.outcome.attempted, 1)
    ft_s, ft_pairs = get("spectral.fourier_transform", 1), get("spectral.fourier_transform", 3)
    main_s = get("cli.main", 1)
    v = {
        "process.import.s": (r.trace["import_s"], "s"),
        "cli.parse_config.s": (get("cli.parse_config", 1), "s"),
        "cli.expand_sweep.s": (get("cli.expand_sweep", 1), "s"),
        "cli.self.s": (sum(s[2] for n, s in stats.items() if n.startswith("cli.")
                           and n not in ("cli.parse_config", "cli.expand_sweep")), "s"),
        "cli.output.bytes": (r.output_bytes, "bytes"),
        "model.energy_closed_form.calls": (get("model.energy_closed_form", 0), "count"),
        "model.energy_closed_form.s": (get("model.energy_closed_form", 1), "s"),
        "model.closed_form_calls_per_solve": (get("model.energy_closed_form", 0) / solves, "ratio"),
        "specfun.hyp2f1.calls": (get("specfun.hyp2f1", 0), "count"),
        "specfun.hyp2f1.points": (get("specfun.hyp2f1", 3), "count"),
        "specfun.hyp2f1.s": (get("specfun.hyp2f1", 1), "s"),
        "wavefunction.auto_r_max.calls": (get("wavefunction.auto_r_max", 0), "count"),
        "wavefunction.auto_r_max.s": (get("wavefunction.auto_r_max", 1), "s"),
        "wavefunction.radial_eigenfunction.s": (get("wavefunction.radial_eigenfunction", 1), "s"),
        "wavefunction.normalize.s": (get("wavefunction.normalize", 1), "s"),
        "spectral.fourier_transform.calls": (get("spectral.fourier_transform", 0), "count"),
        "spectral.fourier_transform.s": (ft_s, "s"),
        "spectral.fourier_transform.point_pairs": (ft_pairs, "count"),
        "spectral.fourier_transform.pairs_per_s": (ft_pairs / ft_s if ft_s > 0 else 0.0, "1/s"),
        "entropy.entropy_pipeline.self.s": (get("entropy.entropy_pipeline", 2), "s"),
        "entropy.shannon.s": (get("entropy.shannon_position", 1)
                              + get("entropy.shannon_momentum", 1), "s"),
        "numerics.simpson_weights.calls_per_solve": (get("numerics.simpson_weights", 0) / solves,
                                                     "ratio"),
        "numerics.simpson_weights.s": (get("numerics.simpson_weights", 1), "s"),
        "trace.wall_s": (r.wall, "s"),
        "trace.unaccounted.s": (r.wall - r.trace["import_s"] - main_s, "s"),
        "faults.a.failed": (r.outcome.faults["A"], "count"),
        "faults.b.failed": (r.outcome.faults["B"], "count"),
    }
    for module in MODULE_NAMES:
        v[f"{module}.self.s"] = (sum(s[2] for n, s in stats.items()
                                     if n.startswith(module + ".")), "s")
    return v


def per_layer(rounds: list[Round]) -> dict:
    per_round = [layer_values(r) for r in rounds]
    out = {name: {"value": statistics.median(pr[name][0] for pr in per_round), "unit": unit}
           for name, (_, unit) in per_round[0].items()}
    pipeline = [d for r in rounds for d in r.trace["pipeline_s"]]
    out["entropy.entropy_pipeline.ms.p50"] = {
        "value": 1e3 * statistics.median(pipeline) if pipeline else 0.0, "unit": "ms"}
    return out


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = root / "src"
    env = {k: v for k, v in os.environ.items() if k != "ABRING_THREADS"}
    env["PYTHONPATH"] = str(src)
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher(env)
    try:
        wl = workloads.WORKLOADS[name](seed, work, src)
        bench = Bench(wl, launcher, trace)
        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:   # whole rounds only
            rounds.append(bench.round())
            r = rounds[-1]
            print(f"round {len(rounds)}: wall {r.wall:.3f}s setup {r.setup:.3f}s "
                  f"rss {r.rss:.1f}MB attempted {r.outcome.attempted} failed {r.outcome.failed} "
                  f"faults {dict(r.outcome.faults)}", file=sys.stderr)
        setups = [r.setup for r in rounds]
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(bench.setup_sample())
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    problems = bench.problems + [p for r in rounds for p in r.outcome.problems]
    for p in dict.fromkeys(problems):
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r.outcome.attempted for r in rounds),
            "failed": sum(r.outcome.failed for r in rounds),
            "metrics": per_layer(rounds) if trace else end_to_end(rounds, setups)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "abring" / "cli.py").is_file():
        print(f"error: no abring sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
