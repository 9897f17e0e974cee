"""Benchmark of the colourgame simulator: games/s end to end, traced per layer.

    python3 benchmarks/run.py --workload ensemble --seed 3 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all     # every end-to-end metric, per workload
    python3 benchmarks/run.py --self-test        # tracing moves no byte; counts repeat
    python3 benchmarks/run.py --record-golden    # rewrite golden.json, see below

The package is imported from `src/` of the checkout this file sits in, and
every file the benchmark writes goes under `.bench_build/colourgame-bench/`
there. The workloads are defined in workloads.py; BENCHMARK.json names the
metrics and their units.

A run is a closed loop with one client and no threads: it starts one batch
at a time, each in a fresh interpreter (child.py), and starts the next only
after the previous one has ended. A batch is one `colourgame.cli.run_command`
on the workload's config, export included.

With `--trace 0` a run plays timed batches for `--seconds` seconds, cycling
through the seeds 4*seed .. 4*seed+3 (each at least twice) and timing
reference.py's fixed computation twice before each batch, then starts
set-up-only interpreters, and reports
  norm_games_per_s  games played / wall seconds of run_command, over all
                    timed batches, times the run's slowdown
  setup_s           median seconds to import colourgame and resolve the
                    config with parse_config in a fresh process, divided by
                    the run's slowdown
  peak_rss_mb       median peak RSS of the fresh process that ran the batch
where the slowdown is the mean time of the reference computation in the run
over its nominal time (reference.py says why). Raw figures, the reference
timings and the slowdown go to stderr.
With `--trace 1` it plays untraced batches and one traced batch (tracer.py)
at `--seed` and reports the traced batch's per-layer metrics, plus
trace.overhead_frac = traced / median untraced wall of run_command - 1.

Correctness. Every run first plays the workload at GOLDEN_SEED and compares
the SHA-256 of every output file with golden.json. Every batch at another
seed must write the same bytes as the run's first batch at that seed.
config.json echoes the output directory, so it is compared with the resolved
config instead: the golden config with this batch's seed and out_dir. A
batch that raises, returns non-zero or writes other bytes counts as failed.
The last line on stdout is the JSON result; the exit code is 1 if any batch
failed. It is 1 with no result if no batch completed, and 2 with no result
if the checkout has no package to run.

`--record-golden` plays every workload at GOLDEN_SEED and stores its digests
and resolved config. Run it only in a change that is meant to alter output
bytes, and say so in that change.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, time_reference
from workloads import GOLDEN_SEED, SELF_TEST_SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH_DIR / "golden.json"
WORK_DIR = ROOT / ".bench_build" / "colourgame-bench"

# A timed run cycles through this many seeds made from --seed, so that
# one seed's game history (pop50_dense converges faster on some than on
# others) does not set the run's figure; each seed plays at least twice.
SEEDS_PER_RUN = 4
MIN_BATCHES = 2 * SEEDS_PER_RUN
SETUP_SAMPLES = 10
# No batch starts after this many seconds of a run, and none outlives
# CHILD_DEADLINE_S, so a run always ends within three minutes.
START_LIMIT_S = 120.0
CHILD_DEADLINE_S = 170.0
TIMING_SUFFIX = ".self_s"


def digest_outputs(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file except config.json, by relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def expected_config_text(config: dict, seed: int, out_dir: Path) -> str:
    """config.json as run_command writes it for this seed and out_dir."""
    resolved = {**config, "seed": seed, "out_dir": str(out_dir)}
    return json.dumps(resolved, indent=2, sort_keys=True) + "\n"


def run_child(
    mode: str, config_path: Path, out_dir: Path, timeout: float,
    spans: Path | None = None,
) -> tuple[dict | None, str | None]:
    """Run child.py once; returns (its JSON result, error or None)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), str(SRC_DIR),
        str(config_path), str(out_dir), mode,
    ]
    if spans is not None:
        cmd.append(str(spans))
    # Bytecode caching stays on, as for an installed package: the first
    # batch of a run writes the cache and set-up times read it.
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("NAMING_GAME_OUT_DIR", "PYTHONDONTWRITEBYTECODE")
    }
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("status", 0) != 0:
        return result, f"run_command returned {result['status']}"
    return result, None


class Session:
    """One run of one workload: its batches, their checks and tallies."""

    def __init__(self, workload: str, golden: dict, seconds: float) -> None:
        self.workload = workload
        self.golden = golden
        self.seconds = seconds
        self.games = golden["config"]["runs"] * golden["config"]["num_interactions"]
        self.attempted = 0
        self.failed = 0
        self.started = time.monotonic()
        self.references = {GOLDEN_SEED: golden["digests"]}
        self.measuring_since = self.started
        self.walls: list[float] = []
        self.reference_s: list[float] = []
        self.dir = WORK_DIR / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def may_start(self) -> bool:
        return self.elapsed() < START_LIMIT_S

    def play(self, seed: int, mode: str = "run") -> dict | None:
        """Run one batch at `seed` and check what it wrote.

        Returns the child's result whenever it produced one, including a
        batch whose bytes were wrong; that batch still counts as failed.
        """
        self.attempted += 1
        config_path = self.dir / f"config-{seed}.json"
        config_path.write_text(json.dumps({**WORKLOADS[self.workload], "seed": seed}))
        out_dir = self.dir / f"out-{seed}"
        shutil.rmtree(out_dir, ignore_errors=True)
        spans = self.dir / "spans.bin" if mode == "trace" else None
        timeout = max(1.0, CHILD_DEADLINE_S - self.elapsed())
        result, error = run_child(mode, config_path, out_dir, timeout, spans)
        if error is None and mode != "setup":
            error = self._check(seed, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            self.failed += 1
            print(f"{self.workload} seed={seed} {mode}: FAILED: {error}",
                  file=sys.stderr)
        return result

    def _check(self, seed: int, out_dir: Path) -> str | None:
        config_file = out_dir / "config.json"
        expected = expected_config_text(self.golden["config"], seed, out_dir)
        if not config_file.is_file() or config_file.read_text() != expected:
            return "config.json differs from the resolved config"
        digests = digest_outputs(out_dir)
        reference = self.references.setdefault(seed, digests)
        if digests != reference:
            differ = sorted(
                path for path in set(digests) | set(reference)
                if digests.get(path) != reference.get(path)
            )
            source = "golden.json" if seed == GOLDEN_SEED else "the first batch"
            return (f"{len(differ)} output files differ from {source}: "
                    f"{', '.join(differ[:4])}")
        return None

    def play_timed(
        self, seeds: list[int], results: list[dict], minimum: int
    ) -> None:
        """Play untraced batches into `results`, cycling through `seeds`, at
        least until it holds `minimum`, and on while the next one should end
        within the run's seconds, counted from `measuring_since`."""
        while self.may_start():
            spent = time.monotonic() - self.measuring_since
            if len(results) >= minimum and (
                spent + statistics.median(self.walls) > self.seconds
            ):
                break
            begin = time.monotonic()
            self.reference_s += [time_reference(), time_reference()]
            result = self.play(seeds[len(results) % len(seeds)])
            self.walls.append(time.monotonic() - begin)
            if result is None:
                break
            results.append(result)

    def tally(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }


def describe(name: str, values: list[float]) -> str:
    if len(values) < 2:
        return f"{name}: n={len(values)} values={values}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: n={len(values)} median={median:.6g} "
            f"q1={q1:.6g} q3={q3:.6g}")


def measure_end_to_end(session: Session, seed: int, units: dict) -> dict | None:
    session.play(GOLDEN_SEED)
    session.measuring_since = time.monotonic()
    runs: list[dict] = []
    seeds = [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]
    session.play_timed(seeds, runs, MIN_BATCHES)
    setups = [r["setup_s"] for r in runs]
    for _ in range(SETUP_SAMPLES):
        if not session.may_start():
            break
        result = session.play(seeds[0], "setup")
        if result is not None:
            setups.append(result["setup_s"])
    if not runs:
        return None
    slowdown = statistics.mean(session.reference_s) / NOMINAL_S
    samples = {
        "games_per_s": [session.games / r["run_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "reference_s": session.reference_s,
    }
    for name, values in samples.items():
        print(f"{session.workload} {describe(name, values)}", file=sys.stderr)
    print(f"{session.workload} slowdown: {slowdown:.4f}", file=sys.stderr)
    games_per_s = len(runs) * session.games / sum(r["run_s"] for r in runs)
    return session.tally(
        {
            "norm_games_per_s": games_per_s * slowdown,
            "setup_s": statistics.median(setups) / slowdown,
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        },
        units,
    )


def measure_layers(session: Session, seed: int, units: dict) -> dict | None:
    session.play(GOLDEN_SEED)
    session.measuring_since = time.monotonic()
    untraced: list[dict] = []
    session.play_timed([seed], untraced, 1)
    traced = session.play(seed, "trace") if session.may_start() else None
    session.play_timed([seed], untraced, 2)
    if traced is None or not untraced:
        return None
    if traced["missing"]:
        print(f"untraced (not found in the package): {traced['missing']}",
              file=sys.stderr)
    layers = traced["layers"]
    untraced_s = statistics.median(r["run_s"] for r in untraced)
    layers["trace.overhead_frac"] = traced["run_s"] / untraced_s - 1
    absent = sorted(set(units) - set(layers))
    if absent:
        print(f"metrics with no span or count: {absent}", file=sys.stderr)
    return session.tally({name: layers.get(name, 0.0) for name in units}, units)


def self_test(golden: dict, per_layer: dict) -> int:
    """On small game counts: tracing changes no output byte, and every
    per-layer count repeats exactly between two traced batches."""
    failures = 0
    for name, sizes in SELF_TEST_SIZES.items():
        work = WORK_DIR / "self-test" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        entries = {**WORKLOADS[name], **sizes, "seed": GOLDEN_SEED}
        config_path = work / "config.json"
        config_path.write_text(json.dumps(entries))
        config = {**golden[name]["config"], **entries}
        outputs, layers = [], []
        for i, mode in enumerate(("run", "trace", "trace")):
            out_dir = work / f"out-{i}"
            spans = work / "spans.bin" if mode == "trace" else None
            result, error = run_child(
                mode, config_path, out_dir, CHILD_DEADLINE_S, spans
            )
            if error is not None:
                print(f"FAIL {name} {mode}: {error}")
                failures += 1
                break
            text = expected_config_text(config, GOLDEN_SEED, out_dir)
            config_ok = (out_dir / "config.json").read_text() == text
            outputs.append((config_ok, digest_outputs(out_dir)))
            if mode == "trace":
                layers.append(result["layers"])
        else:
            counts = [
                {k: v for k, v in stats.items() if not k.endswith(TIMING_SUFFIX)}
                for stats in layers
            ]
            checks = {
                "traced outputs are byte-identical to untraced":
                    outputs[0] == outputs[1] == outputs[2] and outputs[0][0],
                "per-layer counts repeat exactly":
                    counts[0] == counts[1],
                "every per-layer metric is measured":
                    set(per_layer) - {"trace.overhead_frac"} <= set(layers[0]),
            }
            for check, ok in checks.items():
                print(f"{'PASS' if ok else 'FAIL'} {name}: {check}")
                failures += not ok
    return 1 if failures else 0


def record_golden() -> int:
    golden = {}
    for name, entries in WORKLOADS.items():
        work = WORK_DIR / "golden" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config_path = work / "config.json"
        config_path.write_text(json.dumps({**entries, "seed": GOLDEN_SEED}))
        out_dir = work / "out"
        _, error = run_child("run", config_path, out_dir, CHILD_DEADLINE_S)
        if error is not None:
            print(f"{name}: {error}", file=sys.stderr)
            return 1
        config = json.loads((out_dir / "config.json").read_text())
        del config["out_dir"]
        golden[name] = {
            "seed": GOLDEN_SEED,
            "config": config,
            "digests": digest_outputs(out_dir),
        }
        shutil.rmtree(work)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH.name} for {', '.join(golden)}")
    return 0


def report(golden: dict, seconds: float, units: dict) -> int:
    """Print every end-to-end metric of every workload by name and unit."""
    any_failed = False
    for name in WORKLOADS:
        session = Session(name, golden[name], seconds)
        result = measure_end_to_end(session, GOLDEN_SEED, units)
        for metric, entry in (result or {}).get("metrics", {}).items():
            print(f"{name:14} {metric:16} {entry['value']:12.4f} {entry['unit']}")
        print(f"{name:14} {'failed_runs':16} {session.failed:12d} of "
              f"{session.attempted} attempted")
        any_failed |= result is None or session.failed > 0
    return 1 if any_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "colourgame" / "__init__.py").is_file():
        print(f"no colourgame package under {SRC_DIR}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.record_golden:
        return record_golden()
    golden = json.loads(GOLDEN_PATH.read_text())
    if args.self_test:
        return self_test(golden, per_layer)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload == "all":
        return report(golden, seconds, units)
    if args.workload is None:
        parser.error("give --workload, --self-test or --record-golden")

    session = Session(args.workload, golden[args.workload], seconds)
    if args.trace:
        result = measure_layers(session, args.seed, per_layer)
    else:
        result = measure_end_to_end(session, args.seed, units)
    if result is None:
        print("no batch completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
