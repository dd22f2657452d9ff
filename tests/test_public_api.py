"""Package surface: every exported name exists, none is listed twice, the
names the benchmark tracer wraps resolve, and the library imports and runs
without scipy (only the test suite uses it)."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import equicount


def test_all_names_resolve_without_duplicates():
    assert len(equicount.__all__) == len(set(equicount.__all__))
    missing = [name for name in equicount.__all__ if not hasattr(equicount, name)]
    assert missing == []


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracing.py wraps library attributes by name, so a renamed one
    # must fail here rather than in a traced benchmark run.
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer("names")
    try:
        tracing.install(tracer)
        wrapped = list(tracer._originals)
        assert wrapped
        assert all(getattr(owner, attr).__wrapped__ is original
                   for owner, attr, original in wrapped)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)


def test_no_scipy_import(tmp_path):
    source = str(Path(equicount.__file__).parents[1])
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {source!r})
        import equicount, equicount.cli
        # The batch driver's thread pool is imported only when it runs.
        assert "concurrent.futures" not in sys.modules
        code = equicount.cli.main(["verify-uppingdim", "--n", "3", "--m", "1", "--tau", "0.3",
                                   "--trials", "3000", "--seed", "7",
                                   "--out", {str(tmp_path / "lift.json")!r}])
        assert code in (0, 3), code
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        print(",".join(loaded))
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
    assert (tmp_path / "lift.json").exists()
