"""One benchmark child: a fresh interpreter that imports the CLI and runs it once.

Usage: python3 child.py RESULT_JSON MODE [CLI ARGV...]

MODE is one of
  setup  import zenoion.cli and exit (set-up time only);
  run    call zenoion.cli.main(argv) once, untraced;
  trace  the same call with every layer's public functions wrapped;
  probe  time the fixed-size layer probes; argv[0] is the output directory.

Only ``sys`` and ``time`` are imported before ``zenoion.cli``, so the import
time the parent measures is what every CLI invocation pays. The record is
written as JSON to RESULT_JSON; the CLI's own stdout and stderr pass through
to the parent.
"""

import sys
import time


def main() -> None:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[3:]
    import zenoion.cli

    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import resource

    record = {"setup_end": setup_end, "zenoion_file": zenoion.cli.__file__}
    if mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            import layers

            tracer = layers.LayerTracer()
            tracer.install()
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            exit_code = zenoion.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            exit_code = exc.code if isinstance(exc.code, int) else 2
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu_start
        record["exit_code"] = exit_code
        if tracer is not None:
            record["layers"] = tracer.metrics()
    elif mode == "probe":
        import layers

        record["probes"] = layers.run_probes(argv[0])
    elif mode != "setup":
        raise SystemExit(f"unknown child mode {mode!r}")
    sys.stdout.flush()
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
