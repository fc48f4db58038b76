"""The benchmark's tracer hooks program names by string; run it in Tier-1 so
that renaming or deleting a hooked name fails here, not only in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import ozaki.cli
# the hooks read every traced module, and the CLI loads these two only when
# sample or optimize runs; the benchmark's warm-up loads them the same way
import ozaki.gridsearch  # noqa: F401
import ozaki.sampling  # noqa: F401

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_hook_every_traced_name():
    spans = _load_spans()
    original = ozaki.cli.run
    commands = (
        ["verify", "--class", "all"],
        ["report", "--class", "F", "--schwarz=0.3:0.1,0.2"],
        ["sample", "--class", "G", "--samples", "2000"],
        ["optimize", "--objective", "UpsilonF", "--resolution", "200",
         "--refine", "0"],
    )
    with spans.instrumented(spans.Tracer()) as tracer:
        assert ozaki.cli.run is not original
        codes = [ozaki.cli.run(argv)[0] for argv in commands]
    assert codes == [0, 0, 0, 0]
    assert tracer.calls["cli.run"] == 4
    assert tracer.calls["functionals.full_report"] > 0
    assert ozaki.cli.run is original
