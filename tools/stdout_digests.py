"""One sha256 per command family over the output of a fixed set of commands.

    python3 tools/stdout_digests.py [FAMILY ...]

Run from anywhere; the package is imported from this checkout's ``src/``.
Every command runs in-process through ``ozaki.cli.main``, and its exit code,
stdout and stderr are hashed in order.  Run it on two commits on the same
machine (and once more with ``OZAKI_THREADS=2``) and compare the lines: a
family whose digest differs printed other bytes.  No digest is stored,
because numpy or BLAS on another machine may print other last digits.

The families are ``sample`` (F and G at 10^5 members, 8 seeds, JSON and CSV),
``sample-flags`` (the sampler's options and sizes around its chunk and tile
boundaries), ``verify``, ``optimize``, ``extremal`` (with
``report --extremal``), ``member`` (single-member commands and usage errors)
and ``scalar`` (the 505 commands of five ``perfbench`` scalar blocks at
seed 7).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ozaki import cli  # noqa: E402
from ozaki.classes import (EXTREMAL_NAMES, SchwarzCoeffs,  # noqa: E402
                           caratheodory_from_schwarz)

SAMPLE_SEEDS = ("42", "7", "1", "5", "123", "2024", "31337", "99991")
SCALAR_SEED = 7
SCALAR_BLOCKS = 5


def _sample():
    for seed in SAMPLE_SEEDS:
        for label in ("F", "G"):
            for fmt in ("json", "csv"):
                yield ("sample", "--class", label, "--samples", "100000",
                       "--seed", seed, "--format", fmt)


def _sample_flags():
    for label in ("F", "G"):
        yield "sample", "--class", label, "--no-extremals", "--samples", "20000"
        for zeros in ("0", "1", "5"):
            yield ("sample", "--class", label, "--max-zeros", zeros,
                   "--samples", "20000", "--seed", "3")
        for samples in ("1", "4095", "4096", "5000", "16384", "16385", "40000"):
            yield "sample", "--class", label, "--samples", samples, "--seed", "11"
        yield "sample", "--class", label, "--samples", "1", "--format", "csv"
        yield "sample", "--class", label, "--order", "12", "--tol", "1e-6"
    yield "sample", "--class", "F", "--samples", "0"
    yield "sample", "--class", "F", "--max-zeros", "-1"


def _verify():
    for label in ("all", "F", "G"):
        yield "verify", "--class", label
    yield "verify", "--class", "G", "--order", "12"
    yield "verify", "--tol", "0.001"
    yield "verify", "--format", "csv"


def _optimize():
    for fmt in ("json", "csv"):
        yield "optimize", "--objective", "all", "--format", fmt
    yield ("optimize", "--objective", "UpsilonF", "--resolution", "200",
           "--refine", "0")


def _extremal():
    for name in EXTREMAL_NAMES:
        for order in ("4", "8", "25"):
            yield "extremal", name, "--order", order
        yield "report", "--extremal", name


def _member():
    yield "report", "--class", "F", "--schwarz=0.3:0.1,0.2"
    yield "report", "--class", "G", "--schwarz", "-0.5,0.25:-0.1"
    yield "report", "--class", "F", "--caratheodory", "1,0.5:0.5"
    yield "report", "--class", "F", "--caratheodory", "2,2,-2"
    yield "coeffs", "--class", "F", "--schwarz", "0.3:0.1,0.2"
    yield "coeffs", "--class", "G", "--caratheodory", "0.5,0.1", "--order", "10"
    yield "report", "--class", "F", "--schwarz", "1e200"
    yield "report", "--class", "F"
    yield "extremal", "f3"


def _scalar():
    import workloads
    blocks = workloads.scalar_blocks(SCALAR_SEED, workloads.Sizes(), SCALAR_BLOCKS,
                                     caratheodory_from_schwarz, SchwarzCoeffs)
    for block in blocks:
        for op in block.ops:
            yield op.argv


FAMILIES = {
    "sample": _sample,
    "sample-flags": _sample_flags,
    "verify": _verify,
    "optimize": _optimize,
    "extremal": _extremal,
    "member": _member,
    "scalar": _scalar,
}


def run_command(argv) -> bytes:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode()


def family_digest(name: str) -> tuple[int, str]:
    """Number of commands and sha256 of their outputs, in order."""
    h = hashlib.sha256()
    count = 0
    for argv in FAMILIES[name]():
        h.update("\0".join(argv).encode() + b"\n")
        h.update(run_command(argv))
        count += 1
    return count, h.hexdigest()


def main(argv: list[str]) -> int:
    names = argv or list(FAMILIES)
    unknown = [name for name in names if name not in FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; choose from {list(FAMILIES)}",
              file=sys.stderr)
        return 1
    for name in names:
        count, digest = family_digest(name)
        print(f"{name:<13} {count:>4}  {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
