"""Per-round wall times of the grid search, one objective at a time, in-process.

    python3 tools/grid_stages.py [--runs N] [--resolution R] [--refine K]
                                 [--objective NAME|all]

Run from anywhere; the package is imported from this checkout's ``src/``.
For each objective it runs ``grid_extremize`` in the objective's tabulated
direction once untimed as a warm-up and then N times, with its two per-round
helpers wrapped in ``time.perf_counter`` timers, so the rounds timed are the
ones ``grid_extremize`` runs:

* ``rows``: ``_row_maxima``, the row-reduced search of the round's R x R grid;
* ``edge``: ``_curved_edge``, the points of the curve v = 1 - u^2 in the
  window (None at once on the rectangle);
* ``round``: from the start of one round's row search to the start of the
  next one's, or to the return of ``grid_extremize``: the two above, the
  objective on the curved edge, the argmax and the window update.

Per objective it prints, in milliseconds, the median ``rows`` and ``edge``
of each round, the quartiles and median of each ``round``, and those of the
``total`` of all rounds.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ozaki import gridsearch  # noqa: E402
from ozaki.objectives import OBJECTIVES, ObjectiveId  # noqa: E402


@contextmanager
def _timed_helpers(marks: list[dict[str, float]]):
    """Wrap ``_row_maxima`` and ``_curved_edge`` in timers; each row search
    opens one mark in ``marks``, which the round's curved edge completes."""
    row_maxima, curved_edge = gridsearch._row_maxima, gridsearch._curved_edge

    def timed_rows(*args):
        t0 = time.perf_counter()
        out = row_maxima(*args)
        marks.append({"start": t0, "rows": time.perf_counter() - t0})
        return out

    def timed_edge(*args):
        t0 = time.perf_counter()
        out = curved_edge(*args)
        marks[-1]["edge"] = time.perf_counter() - t0
        return out

    gridsearch._row_maxima, gridsearch._curved_edge = timed_rows, timed_edge
    try:
        yield
    finally:
        gridsearch._row_maxima, gridsearch._curved_edge = row_maxima, curved_edge


def time_search(oid: ObjectiveId, resolution: int, refine: int):
    """``grid_extremize``'s result for ``oid`` in its tabulated direction,
    and the seconds of ``rows``, ``edge`` and ``round`` in each round."""
    marks: list[dict[str, float]] = []
    with _timed_helpers(marks):
        result = gridsearch.grid_extremize(oid, resolution=resolution,
                                           refine_iters=refine)
        end = time.perf_counter()
    ends = [m["start"] for m in marks[1:]] + [end]
    rounds = [{"rows": m["rows"], "edge": m["edge"], "round": b - m["start"]}
              for m, b in zip(marks, ends)]
    return result, rounds


def round_table(oid: ObjectiveId, runs: int, resolution: int, refine: int) -> str:
    time_search(oid, resolution, refine)   # warm-up, not counted
    timed = [time_search(oid, resolution, refine)[1] for _ in range(runs)]
    lines = [f"{oid.value} ({OBJECTIVES[oid].mode}): {runs} runs, "
             f"resolution {resolution}, refine {refine}",
             f"{'round':<7}{'rows ms':>9}{'edge ms':>9}"
             f"{'q1 ms':>9}{'median ms':>11}{'q3 ms':>9}"]
    for r in range(len(timed[0])):
        ms = {stage: [1e3 * rounds[r][stage] for rounds in timed]
              for stage in ("rows", "edge", "round")}
        q1, med, q3 = np.percentile(ms["round"], [25, 50, 75])
        lines.append(f"{r:<7}{np.median(ms['rows']):>9.3f}"
                     f"{np.median(ms['edge']):>9.3f}"
                     f"{q1:>9.3f}{med:>11.3f}{q3:>9.3f}")
    total = [1e3 * sum(r["round"] for r in rounds) for rounds in timed]
    q1, med, q3 = np.percentile(total, [25, 50, 75])
    lines.append(f"{'total':<25}{q1:>9.3f}{med:>11.3f}{q3:>9.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=35)
    parser.add_argument("--resolution", type=int, default=2000)
    parser.add_argument("--refine", type=int, default=3)
    parser.add_argument("--objective", default="all",
                        choices=["all"] + [oid.value for oid in ObjectiveId])
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    oids = (list(ObjectiveId) if args.objective == "all"
            else [ObjectiveId(args.objective)])
    for oid in oids:
        try:
            print(round_table(oid, args.runs, args.resolution, args.refine))
        except ValueError as exc:   # grid_extremize's checks of its settings
            parser.error(str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
