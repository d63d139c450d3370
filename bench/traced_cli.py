"""Run the abring CLI with the public functions of its modules wrapped in timers.

Usage: python3 traced_cli.py TRACE_JSON CLI_ARGS...

Every public function defined in cli, model, specfun, wavefunction,
spectral, entropy and numerics is replaced, in every abring namespace that
holds it, by a wrapper that records the call. A call's self time is its
duration minus the durations of the wrapped calls made inside it, so the
self times of all calls add up to the duration of cli.main. Aggregates are
kept in memory and written to TRACE_JSON when the CLI returns. The CLI runs
single-threaded here (ABRING_THREADS unset), so one stack of open calls
suffices.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("cli", "model", "specfun", "wavefunction", "spectral", "entropy", "numerics")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counters: hyp2f1 points evaluated, transform point pairs N * N_k
WORK = {
    "specfun.hyp2f1": lambda a, k: int(getattr(_arg(a, k, 3, "s"), "size", 1)),
    "spectral.fourier_transform": lambda a, k: int(_arg(a, k, 0, "f").x.size
                                                   * _arg(a, k, 1, "grid").n_points),
}
KEEP_DURATIONS = ("entropy.entropy_pipeline",)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s, work]
        self.durations: dict[str, list] = {name: [] for name in KEEP_DURATIONS}
        self._open: list[float] = []           # child time of each call in progress

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        work = WORK.get(name)
        durations = self.durations.get(name)
        open_calls = self._open

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if work is not None:
                stat[3] += work(args, kwargs)
            open_calls.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - open_calls.pop()
                if open_calls:
                    open_calls[-1] += took
                if durations is not None:
                    durations.append(took)
        return timed

    def install(self) -> None:
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"abring.{short}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname == "abring" or modname.startswith("abring."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, name, wrapped[obj])


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import abring.cli  # noqa: F401  (imports every traced module)
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["abring.cli"].main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "stats": tracer.stats,
                       "durations": tracer.durations}, fh)


if __name__ == "__main__":
    sys.exit(main())
