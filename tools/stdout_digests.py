"""One sha256 per command family over the output of a fixed set of commands.

    python3 tools/stdout_digests.py [FAMILY ...]
    python3 tools/stdout_digests.py --compare OTHER_ROOT [FAMILY ...]

Run from anywhere; the package is imported from this checkout's ``src/``.
Every command runs in-process through ``ozaki.cli.main``, and its exit code,
stdout and stderr are hashed in order.  Run it on two commits on the same
machine (and once more with ``OZAKI_THREADS=2``) and compare the lines: a
family whose digest differs printed other bytes.  No digest is stored,
because numpy or BLAS on another machine may print other last digits.

With ``--compare``, the same commands run once in this checkout and once in
the checkout at OTHER_ROOT (a ``git worktree`` of the parent, say), one
subprocess each.  For every family it prints how many commands differ, each
difference that is not a float change (exit code, stderr, a string, an
integer such as a count, a key added or removed, a list length, or a stdout
empty on one side only), and the largest absolute and relative float change
per JSON path (list indices collapsed to ``[]``) and per CSV cell (first
column, header).  Two objects are walked over their shared keys even where
one has a key the other lacks.  It exits 1 if any difference is not a float
change.

The families are ``sample`` (F and G at 10^5 members, 8 seeds, JSON and CSV),
``sample-flags`` (the sampler's options and sizes around its chunk and tile
boundaries), ``verify``, ``optimize`` (``all`` in both formats, and each
objective alone at two resolutions), ``extremal`` (with
``report --extremal``), ``member`` (single-member commands and usage errors)
and ``scalar`` (the 505 commands of five ``perfbench`` scalar blocks at
seed 7).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    from ozaki.objectives import ObjectiveId
    for objective in ObjectiveId:
        for resolution, refine in (("257", "2"), ("101", "4")):
            yield ("optimize", "--objective", objective.value,
                   "--resolution", resolution, "--refine", refine)


def _extremal():
    from ozaki.classes import EXTREMAL_NAMES
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
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from ozaki.classes import SchwarzCoeffs, caratheodory_from_schwarz
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


def _import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    from ozaki import cli
    return cli


def run_command(cli, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def family_digest(cli, name: str) -> tuple[int, str]:
    """Number of commands and sha256 of their outputs, in order."""
    h = hashlib.sha256()
    count = 0
    for argv in FAMILIES[name]():
        code, out, err = run_command(cli, argv)
        h.update("\0".join(argv).encode() + b"\n")
        h.update(f"{code}\0{out}\0{err}\0".encode())
        count += 1
    return count, h.hexdigest()


# ----------------------------------------------------------------------
# --compare: the same commands in two checkouts, difference by difference

def _run_in(root: Path, argvs: list[list[str]]) -> list[list]:
    """[code, stdout, stderr] of every command, run in one subprocess that
    imports the package from ``root``."""
    proc = subprocess.run([sys.executable, __file__, "--worker", str(root)],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"commands in {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _worker(root: str) -> int:
    cli = _import_cli(Path(root))
    results = [run_command(cli, argv) for argv in json.load(sys.stdin)]
    json.dump(results, sys.stdout)
    return 0


def _int(text: str):
    """An integer as printed; "-0" is the float -0.0 printed without digits."""
    value = int(text)
    return -0.0 if value == 0 and text.startswith("-") else value


def _is_float_pair(a, b) -> bool:
    """Two numbers of which at least one is printed as a float; two integers
    (a count, an exit code) are not."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    return numbers and not (isinstance(a, int) and isinstance(b, int))


def _float_change(floats: dict, path: str, a: float, b: float) -> None:
    """Keep the largest absolute and relative change per path; a zero that
    changes sign counts as a change of 0."""
    if math.isnan(a) and math.isnan(b) or (
            a == b and math.copysign(1, a) == math.copysign(1, b)):
        return
    change, scale = abs(a - b), max(abs(a), abs(b))
    _keep_largest(floats, path, change, change / scale if scale else 0.0)


def _keep_largest(floats: dict, path: str, change: float, rel: float) -> None:
    old = floats.get(path, (0.0, 0.0))
    floats[path] = (max(old[0], change), max(old[1], rel))


def _tree_diff(path: str, a, b, floats: dict, other: list) -> None:
    """Walk two parsed JSON values side by side."""
    if _is_float_pair(a, b):
        _float_change(floats, path, a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in {**a, **b}:   # a's keys in order, then those only in b
            sub = f"{path}.{key}" if path else key
            if key not in b:
                other.append(f"{sub}: removed")
            elif key not in a:
                other.append(f"{sub}: added")
            else:
                _tree_diff(sub, a[key], b[key], floats, other)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _tree_diff(f"{path}[]", x, y, floats, other)
    elif a != b:
        other.append(f"{path}: {a!r} -> {b!r}")


def _cell(text: str):
    for parse in (_int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _csv_diff(a: str, b: str, floats: dict, other: list) -> None:
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        other.append("stdout has other lines or another CSV header")
        return
    header = rows_a[0]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            other.append(f"CSV row {ra[:1]} has other columns")
            continue
        for column, x, y in zip(header, ra, rb):
            path = f"csv[{ra[0]}].{column}"
            x, y = _cell(x), _cell(y)
            if _is_float_pair(x, y):
                _float_change(floats, path, x, y)
            elif x != y:
                other.append(f"{path}: {x!r} -> {y!r}")


def _output_diff(old, new, floats: dict, other: list) -> None:
    """Sort the difference of two [code, stdout, stderr] into float changes
    and other differences."""
    (code_a, out_a, err_a), (code_b, out_b, err_b) = old, new
    if code_a != code_b:
        other.append(f"exit code {code_a} -> {code_b}")
    if err_a != err_b:
        other.append(f"stderr {err_a!r} -> {err_b!r}")
    if out_a == out_b:
        return
    if not out_a or not out_b:   # an error on one side prints no stdout
        other.append(f"stdout is empty on the {'new' if out_a else 'old'} side")
        return
    try:
        tree_a, tree_b = (json.loads(out, parse_int=_int) for out in (out_a, out_b))
    except json.JSONDecodeError:
        _csv_diff(out_a, out_b, floats, other)
    else:
        _tree_diff("", tree_a, tree_b, floats, other)


def compare(other_root: Path, names: list[str]) -> int:
    """Run every command in ``other_root`` (the old side) and here (the new
    side); print the differences per family.  1 on a non-float difference."""
    families = {name: [list(argv) for argv in FAMILIES[name]()] for name in names}
    argvs = [argv for name in names for argv in families[name]]
    old_results = iter(_run_in(other_root, argvs))
    new_results = iter(_run_in(ROOT, argvs))
    failed = False
    for name in names:
        differing, floats, other = 0, {}, []
        for argv in families[name]:
            old, new = next(old_results), next(new_results)
            if old == new:
                continue
            differing += 1
            changes: dict = {}
            found: list[str] = []
            _output_diff(old, new, changes, found)
            if not changes and not found:
                found.append("stdout bytes differ, but no value does")
            other.extend(f"{' '.join(argv)}: {text}" for text in found)
            for path, (change, rel) in changes.items():
                _keep_largest(floats, path, change, rel)
        print(f"{name:<13} {len(families[name]):>4} commands, {differing} differ")
        for text in other:
            print(f"  NOT A FLOAT  {text}")
        for path, (change, rel) in sorted(floats.items()):
            print(f"  {path:<44} abs {change:.2e}  rel {rel:.2e}")
        failed = failed or bool(other)
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        return _worker(argv[1])
    other = None
    if argv[:1] == ["--compare"]:
        if len(argv) < 2:
            print("--compare needs the root of another checkout", file=sys.stderr)
            return 1
        other, argv = Path(argv[1]).resolve(), argv[2:]
    names = argv or list(FAMILIES)
    unknown = [name for name in names if name not in FAMILIES]
    if unknown:
        print(f"unknown families {unknown}; choose from {list(FAMILIES)}",
              file=sys.stderr)
        return 1
    cli = _import_cli(ROOT)
    if other is not None:
        return compare(other, names)
    for name in names:
        count, digest = family_digest(cli, name)
        print(f"{name:<13} {count:>4}  {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
