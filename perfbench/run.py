#!/usr/bin/env python3
"""Benchmark for the kernel_repair pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload metric-cli --seed 1 --seconds 35 --trace 0

One process runs one workload as a closed loop: a single client issues one
op after another, with no threads.  The loop runs until the ops have taken
``--seconds`` in total and at least the workload's fixed prefix of ops is
done.  Every op's output is checked outside the timed region.

With ``--trace 0`` the last line of standard output is one JSON object
carrying the end-to-end metrics.  With ``--trace 1`` each op of the fixed
prefix runs twice, untraced and then traced, and the object carries the
per-layer metrics; call counts are then a pure function of the seed.  A line before
it carries the workload-specific metrics, the ``outputs_sha256`` of the
prefix, and the environment of the run.

The package is imported from ``src/`` next to this directory; the command
exits 2 without a result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, digest_view  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-up runs per process; setup_s is their median.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--prefix", type=int,
        help="ops in the fixed prefix (default: the workload's own); for quick checks",
    )
    return parser.parse_args(argv)


def _purge_package():
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def setup(workload_cls, seed, count, workdir):
    """Import the package and generate the inputs, several times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        start = time.perf_counter()
        importlib.import_module(PACKAGE)
        workload = workload_cls()
        problems = workload.generate(seed, count, workdir)
        times.append(time.perf_counter() - start)
    return workload, problems, statistics.median(times)


class Loop:
    """Runs ops, checks each one, and keeps latencies and prefix digests."""

    def __init__(self, workload, problems, prefix):
        self.workload = workload
        self.problems = problems
        self.prefix = prefix
        self.latencies = []
        self.verify_latencies = []
        self.negative_latencies = []
        self.failed = 0
        self.errors = []
        self.digests = []  # one per problem, from its first run

    def step(self, index, call=None):
        """Run, time and check op ``index``; ``call`` wraps the run (tracing)."""
        problem = self.problems[index % len(self.problems)]
        run = self.workload.run
        start = time.perf_counter()
        try:
            raw, error = (call(run, problem) if call else run(problem)), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raw, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        if error is None:
            result = self.workload.finish(problem, raw)
            ok = self.workload.check(problem, result)
            digest = hashlib.sha256(digest_view(self.workload, result)).hexdigest()
            if "verify_s" in raw:
                self.verify_latencies.append(raw["verify_s"])
            if problem.get("expected") in ("failed", "infeasible"):
                self.negative_latencies.append(elapsed)
        else:
            ok, digest = False, hashlib.sha256(error.encode()).hexdigest()
            self.errors.append(f"op {index}: {error}")
        if index < len(self.problems):
            self.digests.append(digest)
        elif digest != self.digests[index % len(self.problems)]:
            ok = False
            self.errors.append(f"op {index}: output differs from the first run of its problem")
        if not ok:
            self.failed += 1
        return elapsed

    def outputs_sha256(self):
        return hashlib.sha256("".join(self.digests[: self.prefix]).encode()).hexdigest()

    def extra_metrics(self):
        """verify_p50_s on metric-cli, negative_p50_s on small-batch."""
        out = {}
        if self.verify_latencies:
            out["verify_p50_s"] = (statistics.median(self.verify_latencies), "s")
        if self.negative_latencies:
            out["negative_p50_s"] = (statistics.median(self.negative_latencies), "s")
        return out


def timed_run(workload, problems, prefix, seconds):
    loop = Loop(workload, problems, prefix)
    busy, index = 0.0, 0
    while busy < seconds or index < prefix:
        busy += loop.step(index)
        index += 1
    lat = loop.latencies
    metrics = {
        "ops_per_s": (len(lat) / busy, "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"op_samples": (len(lat), "count"), "fail_ratio": (loop.failed / len(lat), "ratio")}
    extra.update(loop.extra_metrics())
    return loop, metrics, extra


def traced_run(workload, problems, prefix, spans_path):
    # each op runs untraced and then traced, so a change of machine speed
    # during the run hits both passes alike
    plain = Loop(workload, problems, prefix)
    traced = Loop(workload, problems, prefix)
    tracer = Tracer()
    plain_s = 0.0
    for i in range(prefix):
        plain_s += plain.step(i)
        traced.step(i, lambda run, p, i=i: tracer.run_op(i, run, p))
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    # traced over untraced ops_per_s on the same ops; the traced time is
    # that of the root spans, which leaves out patching and unpatching
    metrics["trace.overhead_ratio"] = (plain_s / metrics["trace.op_total_s"][0], "ratio")
    if traced.digests != plain.digests:
        traced.failed += 1
        traced.errors.append("tracing changed the outputs")
    loop = traced
    loop.failed += plain.failed
    loop.errors += plain.errors
    extra = {"op_samples": (prefix, "count"), "fail_ratio": (loop.failed / (2 * prefix), "ratio")}
    return loop, metrics, extra


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SOURCE / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git itself."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric_doc(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / PACKAGE / "__init__.py").is_file():
        print(f"error: package source {SOURCE / PACKAGE} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    workload_cls = WORKLOADS[args.workload]
    prefix = args.prefix or workload_cls.prefix
    count = prefix if args.prefix else max(prefix, workload_cls.default_problems)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as workdir:
        workload, problems, setup_s = setup(workload_cls, args.seed, count, workdir)
        loaded_from = Path(sys.modules[PACKAGE].__file__).resolve().parent
        if loaded_from != SOURCE / PACKAGE:
            print(f"error: imported {PACKAGE} from {loaded_from}, not {SOURCE}", file=sys.stderr)
            return 2
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            loop, metrics, extra = traced_run(workload, problems, prefix, spans_path)
        else:
            loop, metrics, extra = timed_run(workload, problems, prefix, args.seconds)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    for error in loop.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "outputs_sha256": loop.outputs_sha256(),
        "metrics": _metric_doc(extra),
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "source_sha256": source_sha256(),
            "seconds": args.seconds,
            "prefix_ops": prefix,
        },
    }
    print(json.dumps(info, sort_keys=True))
    attempted = len(loop.latencies) + (prefix if args.trace else 0)
    result = {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": _metric_doc(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
