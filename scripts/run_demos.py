#!/usr/bin/env python3
"""Run every packaged demo and collect the reports in one place.

Each demo is a pure function of the seed, so rerunning with the same
arguments reproduces every report byte for byte apart from timing fields.
An output directory that cannot be made, or a report that cannot be
written, prints one ``error:`` line and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from kernel_repair.demos import DEMO_EXPECTATIONS, DEMOS, run_demo
from kernel_repair.errors import FormatError
from kernel_repair.fileio import strip_timing, write_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--out-dir", type=Path, help="write one JSON report per demo")
    parser.add_argument(
        "--only", choices=sorted(DEMOS), action="append", help="restrict to one demo (repeatable)"
    )
    parser.add_argument(
        "--strip-timing", action="store_true", help="drop timing fields from written reports"
    )
    args = parser.parse_args(argv)

    names = args.only or sorted(DEMOS)
    if args.out_dir:
        try:
            args.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot make output directory {args.out_dir}: {exc}", file=sys.stderr)
            return 1
    failures = 0
    for name in names:
        started = time.perf_counter()
        report = run_demo(name, seed=args.seed)
        elapsed = time.perf_counter() - started
        as_expected = DEMO_EXPECTATIONS[name](report.summary)
        verdict = "as expected" if as_expected else "UNEXPECTED"
        print(f"== {name} ({elapsed:.2f}s, {verdict})")
        print(json.dumps(report.summary, indent=2, sort_keys=True))
        if not as_expected:
            failures += 1
        if args.out_dir:
            doc = report.to_doc()
            if args.strip_timing:
                doc = strip_timing(doc)
            path = args.out_dir / f"{name}.json"
            try:
                write_report(doc, path)
            except FormatError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
