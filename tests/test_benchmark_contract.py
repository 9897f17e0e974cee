"""The benchmark's contract with the package.

`benchmarks/child.py` resolves and runs a batch through
`cli.parse_config`/`cli.run_command`, and `benchmarks/tracer.py` times the
layers by rebinding the functions and methods it names. These tests fail
when the package drops or renames one of them, or when tracing moves an
output byte.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAIL" not in done.stdout


def test_tracer_finds_every_function_it_wraps():
    script = (
        "import colourgame.cli, tracer\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "print(t.missing)\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
