"""Benchmark of the ozaki verification engine through ``ozaki.cli.run``.

    python3 perfbench/run.py --workload {sample,optimize,scalar} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Each run is one process, one caller and one thread
(``OZAKI_THREADS`` is cleared), running closed-loop rounds of command lines.
A round holds units of all three command families so that every end-to-end
metric is measured in every run; the named workload's family takes most of
the round (see ``ROUNDS``).  Rounds repeat until ``--seconds`` have passed,
and at least one round always completes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
rounds (averaged per round) and the tracing overhead.  The last line of
standard output is the result object; the line before it holds
informational fields (machine, versions, output digest, sample counts).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as w

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# units of each family in one round, per workload
# (the other families appear in every round so that each of their metrics is
# sampled across the whole run: the machine's speed drifts over seconds)
ROUNDS = {
    "sample": {"sample": 6, "optimize": 1, "scalar": 10},
    "optimize": {"optimize": 3, "sample": 2, "scalar": 10},
    "scalar": {"scalar": 24, "sample": 2, "optimize": 1},
}
SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ozaki.cli; "
              "code, _ = ozaki.cli.run(sys.argv[2:]); "
              "sys.exit(0 if code in (0, 2) else 1)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sample_members_per_s": "1/s",
    "sample_t21_hits_per_1e5": "count",
    "optimize_s": "s",
    "scalar_cmds_per_s": "1/s",
    "scalar_cmd_p50_ms": "ms",
    "scalar_cmd_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

NOTES = (
    "Timers are in-process time.perf_counter only; machine-wide profiling is "
    "out of bounds. The Tier-1 test suite is not a workload: it is not user "
    "work and carries two failures by design. See perfbench/NOTES.md.")


def per_layer_units(span_names) -> dict[str, str]:
    """Name and unit of every per-layer metric, in print order."""
    units = {}
    for name in span_names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units["gridsearch.self_s" if name == "gridsearch.grid_extremize"
              else f"{name}.self_s"] = "s"
    for oid in w.OBJECTIVE_TRUTH:
        units[f"gridsearch.grid_extremize.busy_s.{oid}"] = "s"
    units.update({
        "objectives.evals": "count",
        "gridsearch.inside_ratio": "ratio",
        "sampling.members": "count",
        "sampling.t21_hit_ratio": "ratio",
        "trace.untraced_round_s": "s",
        "trace.traced_round_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.top_level_share": "ratio",
    })
    return units


def _pin_threads() -> None:
    os.environ.pop("OZAKI_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_ozaki():
    """Import ozaki from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ozaki.cli
    origin = Path(ozaki.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ozaki imported from {origin}, not from {SRC}")
    return ozaki


def interleave(counts: dict[str, int]) -> list[tuple[str, int]]:
    """(family, index) pairs with each family spread evenly over the round."""
    slots = [((j + 0.5) / n, rank, family, j)
             for rank, (family, n) in enumerate(counts.items()) for j in range(n)]
    return [(family, j) for _, _, family, j in sorted(slots)]


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Executes units, checks each output and records timings and failures."""

    def __init__(self, cli, sizes):
        self.cli = cli
        self.sizes = sizes
        self.tracer = None            # set while a traced round runs
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple[str, ...], str] = {}
        self.pair_s: list[float] = []
        self.hits: dict[tuple[str, ...], int] = {}   # per class-F command
        self.optimize_s: list[float] = []
        self.scalar_s = 0.0                           # all scalar commands
        self.scalar_count = 0
        self.member_ms: list[float] = []              # report and coeffs only

    def _execute(self, op):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code, text = self.cli.run(list(op.argv))
        except Exception as exc:  # any exception is a failed operation
            elapsed = time.perf_counter() - t0
            self.failures.append(f"{' '.join(op.argv)[:80]}: {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - t0
        if self.tracer is None:
            return elapsed, self._check(op, code, text)
        return elapsed, self.tracer.call("perfbench.check", self._check, op, code, text)

    def _check(self, op, code, text):
        try:
            payload = op.check(code, text)
        except (w.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.failures.append(f"{' '.join(op.argv)[:80]}: {exc}")
            return None
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(op.argv, digest) != digest:
            self.failures.append(f"{' '.join(op.argv)[:80]}: output differs "
                                 "from an earlier repetition")
            return None
        return payload

    def unit(self, unit, record: bool = True) -> None:
        results = [self._execute(op) for op in unit.ops]
        times = [t for t, _ in results]
        if not record:
            return
        if unit.family == "sample":
            self.pair_s.append(sum(times))
            f_payload = results[0][1]
            if f_payload is not None:
                self.hits[unit.ops[0].argv] = w.t21_hits(f_payload)
        elif unit.family == "optimize":
            self.optimize_s.append(times[0])
        else:
            self.scalar_s += sum(times)
            self.scalar_count += len(times)
            # verify is 1 command in 101, so p99 over all commands would sit
            # on the edge between verify and the slowest member command
            self.member_ms.extend(t * 1e3 for op, t in zip(unit.ops, times)
                                  if op.argv[0] != "verify")

    def round(self, units, tracer=None) -> float:
        """Wall time of one pass over units; checks are spans when traced."""
        self.tracer = tracer
        t0 = time.perf_counter()
        try:
            for unit in units:
                self.unit(unit)
        finally:
            self.tracer = None
        return time.perf_counter() - t0

    def digest(self, units) -> str:
        h = hashlib.sha256()
        for unit in units:
            for op in unit.ops:
                h.update(self.digests.get(op.argv, "missing").encode())
        return h.hexdigest()


def build_round(workload: str, seed: int, sizes, ozaki):
    """The units of one round and each family's first command, from the seed."""
    counts = ROUNDS[workload]
    blocks = w.scalar_blocks(seed, sizes, counts["scalar"],
                             ozaki.classes.caratheodory_from_schwarz,
                             ozaki.classes.SchwarzCoeffs)
    units = {"sample": w.sample_units(seed, sizes, counts["sample"]),
             "optimize": [w.optimize_unit(sizes)] * counts["optimize"],
             "scalar": blocks}
    round_units = [units[family][j] for family, j in interleave(counts)]
    firsts = {family: w.first_op(family, units["sample"], blocks) for family in counts}
    return round_units, firsts


def measure_setup(first_argv, runner: Runner, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing ozaki and running one command."""
    times = []
    for _ in range(repeats):
        runner.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *first_argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            runner.failures.append(f"set-up run exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-200:]}")
    return times


def warm_up(runner: Runner, firsts) -> None:
    """Run each family's first command untimed, so that no timed sample pays
    for first-call costs inside the process (set-up time is measured apart).

    Then move every object alive so far out of the collector's reach: the
    benchmark's own inputs are tens of thousands of objects, and each full
    collection would otherwise walk them inside a timed command."""
    for op in firsts.values():
        runner.unit(w.Unit(op.family, (op,)), record=False)
    gc.collect()
    gc.freeze()


def timed_rounds(runner: Runner, round_units, seconds: float) -> int:
    """Repeat the round until `seconds` have passed, stopping between units
    but only after the first round is complete; returns the rounds completed."""
    start = time.perf_counter()
    rounds = 0
    while True:
        for unit in round_units:
            if rounds and time.perf_counter() - start >= seconds:
                return rounds
            runner.unit(unit)
        rounds += 1


def end_to_end(runner: Runner, setup_times: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "sample_members_per_s": 2 * runner.sizes.samples * len(runner.pair_s)
                                / sum(runner.pair_s),
        "sample_t21_hits_per_1e5": sum(runner.hits.values()) * 1e5
                                   / (max(len(runner.hits), 1) * runner.sizes.samples),
        "optimize_s": statistics.median(runner.optimize_s),
        "scalar_cmds_per_s": runner.scalar_count / runner.scalar_s,
        "scalar_cmd_p50_ms": quantile(runner.member_ms, 50),
        "scalar_cmd_p99_ms": quantile(runner.member_ms, 99),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, rounds: int, untraced: list[float], traced: list[float],
              span_names) -> dict[str, float]:
    values = {}
    for name in span_names:
        values[f"{name}.calls"] = tracer.calls[name] / rounds
        values[f"{name}.busy_s"] = tracer.busy[name] / rounds
        key = "gridsearch.self_s" if name == "gridsearch.grid_extremize" else f"{name}.self_s"
        values[key] = tracer.self_time[name] / rounds
    for oid in w.OBJECTIVE_TRUTH:
        values[f"gridsearch.grid_extremize.busy_s.{oid}"] = tracer.by_objective[oid] / rounds
    c = tracer.counters
    base_u, base_t = statistics.median(untraced), statistics.median(traced)
    values.update({
        "objectives.evals": c["objectives.evals"] / rounds,
        "gridsearch.inside_ratio": c["objectives.inside"] / max(c["objectives.evals"], 1),
        "sampling.members": c["sampling.members"] / rounds,
        "sampling.t21_hit_ratio": c["sampling.t21_hits"] / max(c["sampling.members_F"], 1),
        "trace.untraced_round_s": base_u,
        "trace.traced_round_s": base_t,
        "trace.overhead_s": base_t - base_u,
        "trace.overhead_ratio": (base_t - base_u) / base_u,
        "trace.top_level_share": tracer.top_level / sum(traced),
    })
    return values


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "ozaki").glob("*.py"))


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Run one workload; returns (result object, informational fields)."""
    import numpy
    import spans

    ozaki = load_ozaki()
    sizes = sizes or w.Sizes()
    round_units, firsts = build_round(workload, seed, sizes, ozaki)
    runner = Runner(ozaki.cli, sizes)
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}

    if trace:
        warm_up(runner, firsts)
        tracer = spans.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            if len(untraced) <= len(traced):
                untraced.append(runner.round(round_units))
                continue
            with spans.instrumented(tracer):
                traced.append(runner.round(round_units, tracer))
        metrics = per_layer(tracer, len(traced), untraced, traced, spans.SPAN_NAMES)
        units = per_layer_units(spans.SPAN_NAMES)
        info["rounds"] = {"untraced": len(untraced), "traced": len(traced)}
        info["self_time_sum_s"] = sum(tracer.self_time.values())
        info["top_level_s"] = tracer.top_level
    else:
        setup_times = measure_setup(firsts[workload].argv, runner, setup_repeats)
        warm_up(runner, firsts)
        rounds = timed_rounds(runner, round_units, seconds)
        metrics = end_to_end(runner, setup_times)
        units = END_TO_END_UNITS
        info["rounds"] = rounds
        info["sample_counts"] = {
            "setup_s": len(setup_times),
            "sample_units": len(runner.pair_s),
            "sample_seeds": len(runner.hits),
            "optimize_s": len(runner.optimize_s),
            "scalar_commands": runner.scalar_count,
            "scalar_member_latencies": len(runner.member_ms),
        }

    failed = len(runner.failures)
    info.update({
        "output_digest": runner.digest(round_units),
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:5],
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": "1 (OZAKI_THREADS unset)",
        "src_ozaki_lines": src_line_count(),
        "notes": NOTES,
    })
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUNDS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _pin_threads()
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import ozaki from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
