"""Command line of the repository benchmark.

    python3 perfbench/run.py --workload adhoc_store_sales --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it print
every metric with its unit and sample count.  The exit code is 0 only
when every op succeeded with the oracle's answer.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adhoc_store_sales", "anticorr_global", "serve_rw")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--clients", type=int, default=1,
                        help="serve_rw client connections (default 1; "
                             "more make reads and writes race)")
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    the shared-memory transport, so a run leaves no process behind.
    ``_stop`` is private; without it the helper exits with this
    process."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.clients < 1:
        print("--seconds must be > 0 and --clients >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"engine sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import output_dir

    # Spill files and other temporaries stay inside the checkout.
    scratch = output_dir() / "tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    if args.workload == "serve_rw":
        from perfbench import serve_workload as module
        options = {"clients": args.clients}
    else:
        from perfbench import engine_workloads as module
        options = {}
    try:
        report = module.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), **options)
    finally:
        stop_resource_tracker()
    for line in report.table():
        print(line)
    print(report.result_line(), flush=True)
    return report.tally.exit_code


if __name__ == "__main__":
    sys.exit(main())
