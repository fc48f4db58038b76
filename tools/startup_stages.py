"""Wall times of fresh interpreters: start-up, import and the first command
of each benchmark workload.

    python3 tools/startup_stages.py [--runs N]

Run from anywhere; the package is imported from this checkout's ``src/``.
Each stage is one fresh ``python`` process, timed from start to exit with
``time.perf_counter`` in this process:

* ``python``: ``python -c pass``, the interpreter alone;
* ``import``: ``import ozaki.cli``;
* ``extremal``, ``coeffs``, ``report``, ``verify``, ``sample``,
  ``optimize``: that import and then one command through ``ozaki.cli.run``,
  as ``perfbench`` times its set-up; ``sample`` and ``optimize`` are the
  set-up commands of those two workloads.

The stages run in turn, N rounds of them, so that drift of the machine
spreads over every stage alike.  For each stage it prints the quartiles and
median in milliseconds, and which of the modules in ``WATCHED`` the process
had loaded at exit (``-`` for none).
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# a stage's command line for ozaki.cli.run; None runs no command
STAGES = {
    "import": None,
    "extremal": ("extremal", "f1"),
    "coeffs": ("coeffs", "--class", "F", "--schwarz=0.3:0.1,0.2"),
    "report": ("report", "--class", "G", "--caratheodory=1,0.5:0.5"),
    "verify": ("verify", "--class", "all"),
    "sample": ("sample", "--class", "F", "--samples", "1000"),
    "optimize": ("optimize", "--objective", "UpsilonF", "--resolution", "200",
                 "--refine", "0"),
}
# the costly modules a command may import without running them
WATCHED = ("numpy", "dataclasses", "fractions", "csv", "ozaki.ledger",
           "ozaki.objectives")
CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ozaki.cli; "
        "code = ozaki.cli.run(sys.argv[3:])[0] if sys.argv[3:] else 0; "
        "print(','.join(m for m in sys.argv[2].split(',') if m in sys.modules)); "
        "sys.exit(0 if code in (0, 2) else 1)")


def run_stage(name: str) -> tuple[float, set[str]]:
    """Seconds of one fresh process of stage ``name``, and the modules of
    ``WATCHED`` that it loaded."""
    if name == "python":
        argv = [sys.executable, "-c", "pass"]
    else:
        argv = [sys.executable, "-c", CODE, str(SRC), ",".join(WATCHED),
                *(STAGES[name] or ())]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    spent = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"stage {name} exited {proc.returncode}: {proc.stderr}")
    return spent, set(filter(None, proc.stdout.strip().split(",")))


def stage_table(runs: int) -> str:
    names = ("python", *STAGES)
    times: dict[str, list[float]] = {name: [] for name in names}
    loaded: dict[str, set[str]] = {name: set() for name in names}
    for _ in range(runs):
        for name in names:
            spent, modules = run_stage(name)
            times[name].append(spent)
            loaded[name] |= modules
    lines = [f"fresh interpreters, {runs} runs per stage, Python "
             f"{sys.version.split()[0]}",
             f"{'stage':<10}{'q1 ms':>9}{'median ms':>11}{'q3 ms':>9}  loaded"]
    for name in names:
        ms = [1e3 * t for t in times[name]]
        q1, med, q3 = (statistics.quantiles(ms, n=4, method="inclusive")
                       if runs > 1 else ms * 3)
        modules = ",".join(m for m in WATCHED if m in loaded[name]) or "-"
        lines.append(f"{name:<10}{q1:>9.1f}{med:>11.1f}{q3:>9.1f}  {modules}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    print(stage_table(args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
