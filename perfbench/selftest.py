"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it makes one untraced and one traced run with small
problem sizes and checks that

* every operation passes its correctness check;
* every end-to-end (untraced) or per-layer (traced) metric that
  BENCHMARK.json names is printed, with the unit BENCHMARK.json gives, as a
  finite number;
* the self times of the trace add up to its top-level time, and the
  top-level spans cover the traced wall time of the workload.

Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads as w

TINY = w.Sizes(samples=2000, resolution=300, refine=3, block=10)
MIN_TOP_LEVEL_SHARE = 0.98


def check_run(workload: str, trace: bool, expected: dict[str, str]) -> list[str]:
    result, info = run.measure(workload, seed=7, seconds=0.01, trace=trace,
                               sizes=TINY, setup_repeats=1)
    where = f"{workload} trace={int(trace)}"
    problems = [f"{where}: {msg}" for msg in info["failures"]]
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: printed metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(expected))}, units "
                        f"{[n for n in expected if printed.get(n, expected[n]) != expected[n]]}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} = {m['value']!r}")
    if trace:
        if not math.isclose(info["self_time_sum_s"], info["top_level_s"], rel_tol=1e-9):
            problems.append(f"{where}: self times add to {info['self_time_sum_s']}, "
                            f"top-level spans to {info['top_level_s']}")
        share = result["metrics"]["trace.top_level_share"]["value"]
        if not MIN_TOP_LEVEL_SHARE <= share <= 1.0:
            problems.append(f"{where}: top-level spans cover {share:.4f} of the traced wall time")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run._pin_threads()
    problems = []
    for workload in (x["name"] for x in spec["workloads"]):
        problems += check_run(workload, False, end_to_end)
        problems += check_run(workload, True, per_layer)
    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
