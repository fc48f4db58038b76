"""Per-stage wall times of the sampler's chunks, one thread, in-process.

    python3 tools/chunk_stages.py [--chunks N] [--seed S] [--tile T]

Run from anywhere; the package is imported from this checkout's ``src/``.
For each class it draws N chunks of ``_CHUNK`` members from the child seeds
that ``sample --seed S`` uses, after one untimed warm-up chunk, and times
with ``time.perf_counter`` the stages that ``_check_chunk`` runs:

* ``draw``: ``_draw_batch`` of the whole chunk;
* ``members``: ``_members`` per tile, the Schwarz expansion to order 3 and
  the direct formulas for a2..a4;
* ``evaluate``: ``evaluate`` per tile;
* ``crosscheck``: ``inverse_crosscheck`` per tile;
* ``reduction``: ``_reduce`` per tile, the ``FUNCTIONAL_VALUES`` and their
  minima, maxima and violation counts.

Each tile's stage times are summed over the chunk.  It prints the quartiles
and median of each stage, and of their sum, in milliseconds per chunk.
``--tile`` splits each chunk into tiles of T members in place of
``_TILE``, to compare tile sizes; it does not change what is computed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ozaki.classes import ClassLabel  # noqa: E402
from ozaki.functionals import (CoeffTriple, evaluate,  # noqa: E402
                               inverse_crosscheck)
from ozaki.ledger import entries_for  # noqa: E402
from ozaki.sampling import (_CHUNK, _TILE, SampleConfig,  # noqa: E402
                            _draw_batch, _members, _reduce)

STAGES = ("draw", "members", "evaluate", "crosscheck", "reduction")


def time_chunk(cfg: SampleConfig, seed: np.random.SeedSequence, tile: int,
               sides) -> tuple[dict[str, float], list[tuple]]:
    """Seconds per stage for one chunk drawn from ``seed`` with the settings
    of ``cfg``, and its per-tile results in the form of ``_check_members``."""
    spent = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    batch = _draw_batch(np.random.default_rng(seed), _CHUNK,
                        cfg.blaschke_max_zeros)
    t1 = time.perf_counter()
    spent["draw"] = t1 - t0
    tiles = []
    for start in range(0, _CHUNK, tile):
        t0 = time.perf_counter()
        f = _members(cfg.label, batch[start:start + tile])
        t1 = time.perf_counter()
        report = evaluate(CoeffTriple(f[2], f[3], f[4]))
        t2 = time.perf_counter()
        crosscheck = inverse_crosscheck(f, report)
        t3 = time.perf_counter()
        mins, maxs, violations = _reduce(report, sides, cfg.violation_tolerance)
        t4 = time.perf_counter()
        for stage, (a, b) in zip(STAGES[1:], ((t0, t1), (t1, t2), (t2, t3),
                                              (t3, t4))):
            spent[stage] += b - a
        tiles.append((mins, maxs, violations, crosscheck))
    return spent, tiles


def stage_table(label: ClassLabel, chunks: int, seed: int, tile: int) -> str:
    sides = tuple((e.functional, chk) for e in entries_for(label)
                  for chk in e.checks)
    cfg = SampleConfig(label, chunks * _CHUNK, seed=seed)   # default settings
    seeds = np.random.SeedSequence(seed).spawn(chunks)
    time_chunk(cfg, seeds[0], tile, sides)   # warm-up, not counted
    runs = [time_chunk(cfg, s, tile, sides)[0] for s in seeds]
    lines = [f"class {label.value}: {chunks} chunks of {_CHUNK} members, "
             f"tiles of {tile}, seed {seed}",
             f"{'stage':<12}{'q1 ms':>10}{'median ms':>11}{'q3 ms':>10}"]
    for stage in STAGES + ("total",):
        ms = [1e3 * (sum(r.values()) if stage == "total" else r[stage])
              for r in runs]
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        lines.append(f"{stage:<12}{q1:>10.3f}{med:>11.3f}{q3:>10.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chunks", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tile", type=int, default=_TILE)
    args = parser.parse_args(argv)
    if args.chunks < 1 or args.tile < 1:
        parser.error("--chunks and --tile must be at least 1")
    for label in (ClassLabel.F, ClassLabel.G):
        print(stage_table(label, args.chunks, args.seed, args.tile))
    return 0


if __name__ == "__main__":
    sys.exit(main())
