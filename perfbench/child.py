"""One benchmark process: import pcqed.cli, run a list of CLI calls, report.

Usage: python3 child.py --calls CALLS.json --report REPORT.json [--trace]

CALLS.json holds a list of argument vectors; each is passed to
`pcqed.cli.main` in turn, in this one process, exactly as the `pcqed` console
script would pass its command line. The report records when the import of
`pcqed.cli` finished (on CLOCK_MONOTONIC, which the parent shares, so the
parent can time process start to import), the duration and exit code of
every call, the peak resident memory, and with --trace the per-function
aggregate of the tracer's spans. A traced process also writes its raw spans,
kept in memory during the run, to REPORT.spans.json at exit.
"""

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--calls", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import pcqed.cli as cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(args.calls) as fh:
        plan = json.load(fh)
    calls = []
    for argv in plan:
        start = time.perf_counter()
        error = None
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not the end of the run
            code, error = 1, traceback.format_exc()
        elapsed = time.perf_counter() - start
        calls.append({"argv": argv, "exit": code, "wall_s": elapsed, "error": error})
    report = {
        "imported_at": imported,
        "pcqed_file": cli.__file__,
        "calls": calls,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["trace"] = tracer.aggregate()
        with open(args.report.removesuffix(".json") + ".spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
