"""Per-phase wall times of the scalar commands, one thread, in-process.

    python3 tools/command_stages.py [--blocks N] [--seed S]

Run from anywhere; the package is imported from this checkout's ``src/``.
It builds N blocks of the ``perfbench`` scalar stream at seed S (100 member
commands and one ``verify --class all`` each), runs the first block once
untimed as a warm-up, and then times every command once with
``time.perf_counter`` in the phases that ``ozaki.cli.run`` goes through:

* ``parse``: ``ozaki.cli._parse``, the step of ``run`` that reads the
  command line with the subcommand's own parser;
* ``payload``: the subcommand's payload, the member build and its
  functionals, or the ledger check of ``verify``;
* ``emit``: the envelope and its JSON text.

For each kind of command (``report`` from Schwarz data, ``report`` from
Caratheodory data, ``coeffs`` and ``verify``) it prints the quartiles and
median of each phase, and of their sum, in microseconds per command.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from ozaki import cli  # noqa: E402
from ozaki.classes import SchwarzCoeffs, caratheodory_from_schwarz  # noqa: E402

PHASES = ("parse", "payload", "emit")
KINDS = ("report/schwarz", "report/caratheodory", "coeffs", "verify")


def kind_of(argv) -> str:
    """The kind of a scalar command line, one of ``KINDS``."""
    if argv[0] == "report":
        source = argv[-1].removeprefix("--").partition("=")[0]
        return f"report/{source}"
    return argv[0]


def time_command(argv) -> tuple[dict[str, float], int, str]:
    """Seconds per phase of one command, and its exit code and output text
    as ``cli.run`` returns them."""
    t0 = time.perf_counter()
    args = cli._parse(argv)
    t1 = time.perf_counter()
    payload, status, csv_rows = cli._DISPATCH[args.subcommand](args)
    t2 = time.perf_counter()
    envelope = cli._envelope(" ".join(argv), payload, status,
                             seed=getattr(args, "seed", None))
    text = cli.emit(envelope, args.format, csv_rows)
    t3 = time.perf_counter()
    spent = dict(zip(PHASES, (t1 - t0, t2 - t1, t3 - t2)))
    return spent, 0 if status == "ok" else 2, text


def scalar_commands(blocks: int, seed: int) -> list[tuple[str, ...]]:
    units = workloads.scalar_blocks(seed, workloads.Sizes(), blocks,
                                    caratheodory_from_schwarz, SchwarzCoeffs)
    return [op.argv for unit in units for op in unit.ops]


def phase_table(blocks: int, seed: int) -> str:
    argvs = scalar_commands(blocks, seed)
    for argv in argvs[:workloads.Sizes().block + 1]:   # warm-up, not counted
        time_command(argv)
    runs: dict[str, list[dict[str, float]]] = {kind: [] for kind in KINDS}
    for argv in argvs:
        runs[kind_of(argv)].append(time_command(argv)[0])
    lines = [f"{len(argvs)} scalar commands in {blocks} blocks, seed {seed}"]
    for kind in KINDS:
        lines += [f"{kind}: {len(runs[kind])} commands",
                  f"{'phase':<10}{'q1 us':>10}{'median us':>11}{'q3 us':>10}"]
        for phase in PHASES + ("total",):
            us = [1e6 * (sum(r.values()) if phase == "total" else r[phase])
                  for r in runs[kind]]
            q1, med, q3 = np.percentile(us, [25, 50, 75])
            lines.append(f"{phase:<10}{q1:>10.1f}{med:>11.1f}{q3:>10.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")
    print(phase_table(args.blocks, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
