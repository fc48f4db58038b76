"""Per-stage wall times and page faults of the sampler's chunks, one thread, in-process.

    python3 tools/chunk_stages.py [--chunks N] [--seed S] [--tile T]

Run from anywhere; the package is imported from this checkout's ``src/``.
For each class it draws N chunks of ``_CHUNK`` members from the child seeds
that ``sample --seed S`` uses into one buffer, reused across the chunks as
``sample_and_check`` reuses it, and times with ``time.perf_counter`` the
stages that ``_check_chunk`` runs:

* ``draw``: ``_draw_batch`` of the whole chunk;
* ``members``: ``_members`` per tile, the Schwarz expansion to order 3 and
  the direct formulas for a2..a4;
* ``evaluate``: ``evaluate`` per tile;
* ``crosscheck``: ``inverse_crosscheck`` per tile;
* ``reduction``: ``_reduce`` per tile, the ``FUNCTIONAL_VALUES`` and their
  minima, maxima and violation counts.

Each tile's stage times are summed over the chunk.  It prints the quartiles
and median of each stage, and of their sum, in milliseconds per chunk, and
the median of the minor page faults this process took in the stage per
chunk (``ru_minflt`` deltas of ``getrusage``).  An untimed warm-up chunk
runs first, into a buffer of its own that is freed before the timed chunks,
as in a process that has run ``sample`` before.
Then, from one more chunk run apart from the timed ones with ``tracemalloc``
on, it prints each stage's peak traced memory in KiB above what was traced
when the chunk began (the drawn batch included, for the per-tile stages;
the largest tile for those), and the peak of the whole chunk as ``total``.
``--tile`` splits each chunk into tiles of T members in place of
``_TILE``, to compare tile sizes; it does not change what is computed.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import tracemalloc
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


def chunk_buffer(cfg: SampleConfig) -> np.ndarray:
    """A draw buffer for chunks of ``_CHUNK`` members with the settings of
    ``cfg``, as ``sample_and_check`` makes one per thread."""
    return np.empty(4 * _CHUNK * max(cfg.blaschke_max_zeros, 1))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_chunk(cfg: SampleConfig, seed: np.random.SeedSequence, tile: int,
              sides, buf, measure) -> list[tuple]:
    """The per-tile results, in the form of ``_check_members``, of one chunk
    drawn from ``seed`` into ``buf`` with the settings of ``cfg``; each stage
    runs as ``measure(stage, thunk)``, which returns what ``thunk()``
    returns."""
    batch = measure("draw", lambda: _draw_batch(
        np.random.default_rng(seed), _CHUNK, cfg.blaschke_max_zeros, buf))
    return [run_tile(cfg, batch, start, tile, sides, measure)
            for start in range(0, _CHUNK, tile)]


def run_tile(cfg: SampleConfig, batch, start: int, tile: int, sides,
             measure) -> tuple:
    """The tile of ``batch`` at ``start`` through the stages that follow the
    draw; like the sampler, it holds nothing of the tile when it returns."""
    f = measure("members", lambda: _members(cfg.label, batch[start:start + tile]))
    report = measure("evaluate", lambda: evaluate(CoeffTriple(f[2], f[3], f[4])))
    crosscheck = measure("crosscheck", lambda: inverse_crosscheck(f, report))
    mins, maxs, violations = measure("reduction", lambda: _reduce(
        report, sides, cfg.violation_tolerance))
    return mins, maxs, violations, crosscheck


def time_chunk(cfg: SampleConfig, seed: np.random.SeedSequence, tile: int,
               sides, buf) -> tuple[dict[str, float], dict[str, int], list[tuple]]:
    """Seconds and minor page faults per stage of one chunk, summed over its
    tiles, and its per-tile results (see ``run_chunk``)."""
    spent = dict.fromkeys(STAGES, 0.0)
    faults = dict.fromkeys(STAGES, 0)

    def measure(stage, thunk):
        f0, t0 = minor_faults(), time.perf_counter()
        out = thunk()
        spent[stage] += time.perf_counter() - t0
        faults[stage] += minor_faults() - f0
        return out

    return spent, faults, run_chunk(cfg, seed, tile, sides, buf, measure)


def memory_chunk(cfg: SampleConfig, seed: np.random.SeedSequence, tile: int,
                 sides, buf) -> tuple[dict[str, int], list[tuple]]:
    """Peak traced bytes per stage of one chunk, above what was traced when
    the chunk began, the largest over its tiles, and its per-tile results
    (see ``run_chunk``)."""
    peaks = dict.fromkeys(STAGES, 0)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]

    def measure(stage, thunk):
        tracemalloc.reset_peak()
        out = thunk()
        peaks[stage] = max(peaks[stage], tracemalloc.get_traced_memory()[1] - base)
        return out

    try:
        return peaks, run_chunk(cfg, seed, tile, sides, buf, measure)
    finally:
        tracemalloc.stop()


def stage_table(label: ClassLabel, chunks: int, seed: int, tile: int) -> str:
    sides = tuple((e.functional, chk) for e in entries_for(label)
                  for chk in e.checks)
    cfg = SampleConfig(label, chunks * _CHUNK, seed=seed)   # default settings
    seeds = np.random.SeedSequence(seed).spawn(chunks)
    time_chunk(cfg, seeds[0], tile, sides, chunk_buffer(cfg))   # warm-up
    buf = chunk_buffer(cfg)
    runs = [time_chunk(cfg, s, tile, sides, buf)[:2] for s in seeds]
    lines = [f"class {label.value}: {chunks} chunks of {_CHUNK} members, "
             f"tiles of {tile}, seed {seed}",
             f"{'stage':<12}{'q1 ms':>10}{'median ms':>11}{'q3 ms':>10}"
             f"{'faults':>8}"]
    spent, faulted = zip(*runs)

    def per_chunk(column, stage):
        return [sum(r.values()) if stage == "total" else r[stage] for r in column]

    for stage in STAGES + ("total",):
        q1, med, q3 = 1e3 * np.percentile(per_chunk(spent, stage), [25, 50, 75])
        faults = np.median(per_chunk(faulted, stage))
        lines.append(f"{stage:<12}{q1:>10.3f}{med:>11.3f}{q3:>10.3f}{faults:>8.0f}")
    peaks = memory_chunk(cfg, seeds[0], tile, sides, buf)[0]
    lines.append(f"{'stage':<12}{'peak KiB':>10}")
    for stage in STAGES + ("total",):
        peak = max(peaks.values()) if stage == "total" else peaks[stage]
        lines.append(f"{stage:<12}{peak / 1024:>10.0f}")
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
