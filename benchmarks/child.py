"""One benchmark batch in a fresh interpreter.

    python3 child.py <src_dir> <config.json> <out_dir> <setup|run|trace> [spans]

Imports colourgame from `src_dir` and resolves the config file with
`colourgame.cli.parse_config`, overriding only `out_dir`; that is the set-up
time. Mode `setup` stops there. Mode `run` then executes the batch with
`colourgame.cli.run_command`, which plays every game and writes every output
file. Mode `trace` does the same with the tracer installed first, and writes
the raw spans to the file `spans`. The last line on stdout is one JSON
object with the timings, the return code, peak RSS and, when traced, the
per-layer statistics.
"""
import sys
import time


def main(argv: list[str]) -> int:
    src_dir, config_path, out_dir, mode = argv[1:5]
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    from colourgame import cli

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    config = cli.parse_config(config_path, {"out_dir": out_dir})
    setup_s = time.perf_counter() - start

    import json
    import resource

    result: dict = {"setup_s": setup_s}
    if mode != "setup":
        begin = time.perf_counter()
        result["status"] = cli.run_command(config)
        result["run_s"] = time.perf_counter() - begin
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    if tracer is not None:
        from pathlib import Path

        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
        tracer.dump(Path(argv[5]))
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
