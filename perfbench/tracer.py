"""Layer tracing from outside the package, by patching its public functions.

A span wraps one call into a layer: it records name, start, end, the
enclosing span and the op it belongs to.  Self time is span time minus the
time covered by child spans.  Spans are patched in every module of the
package that binds the function, because ``corrector`` and ``cli`` import
``violations``, ``proven_infeasible``, ``multi_type_extract``,
``is_density_tuple`` and the ``load_*`` helpers by name.

Hot leaf calls are patched on their class and aggregated instead of
recorded one by one, so memory stays bounded by the number of spans, not by
the number of leaf calls: ``StepKernel.value_at``,
``CompactifiedRay.chart`` and ``chart_inverse`` and
``CellPartition.cell_of`` are counted and timed, every atom's
``satisfied`` and every coloring call only counted.  A leaf's self time excludes leaves nested inside it; it is not
subtracted from the enclosing span, whose self time therefore contains the
leaf work done directly under it.

``run_op`` patches for the duration of one op and then puts every original
back, so the benchmark's own checks run unpatched.  The benchmark is single
threaded, so one stack describes the current call path.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

#: (module, function, span name)
SPANS = (
    ("cli", "cmd_correct", "cli.correct"),
    ("cli", "cmd_verify", "cli.verify"),
    ("fileio", "load_json", "fileio.load"),
    ("fileio", "load_kernel", "fileio.load"),
    ("fileio", "load_constraint", "fileio.load"),
    ("fileio", "write_report", "fileio.write"),
    ("corrector", "repair", "corrector.repair"),
    ("corrector", "audit_ae_hypothesis", "corrector.audit_ae_hypothesis"),
    ("constraint", "violations", "constraint.violations"),
    ("constraint", "proven_infeasible", "constraint.proven_infeasible"),
    ("density", "is_density_tuple", "density.is_density_tuple"),
    ("ramsey", "multi_type_extract", "ramsey.multi_type_extract"),
    ("ramsey", "extract_core", "ramsey.extract"),
)

#: (module, class, method, leaf name)
LEAVES = (
    ("kernel", "StepKernel", "value_at", "kernel.value_at"),
    ("values", "CompactifiedRay", "chart", "values.chart"),
    ("values", "CompactifiedRay", "chart_inverse", "values.chart"),
    ("values", "CellPartition", "cell_of", "values.cell_of"),
)

ATOM_CLASSES = ("EqualityAtom", "ZeroProductAtom", "AffineAtom", "FiniteValuesAtom", "TableAtom")

PACKAGE = "kernel_repair"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, op, name, start, end)
        self.span_stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.leaf_stats = defaultdict(lambda: [0, 0.0])
        self.counts = defaultdict(int)
        self._stack = []  # open spans: [id, child seconds]
        self._leaf_child = []  # per open leaf: seconds spent in nested leaves
        self._ids = itertools.count(1)
        self._op = None
        self._patches = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def call_span(self, name, fn, args, kwargs, hooks=None):
        hooks = hooks or {}
        if "args" in hooks:
            args, kwargs = hooks["args"](self, args, kwargs)
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if "error" in hooks:
                hooks["error"](self, exc)
            raise
        finally:
            end = _perf()
            stack.pop()
            duration = end - start
            stat = self.span_stats[name]
            stat[0] += 1
            stat[1] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self.spans.append((frame[0], parent, self._op, name, start, end))
        if "result" in hooks:
            hooks["result"](self, result, args, kwargs)
        return result

    def run_op(self, op_index, fn, *args):
        """Run one benchmark op, patched, as the root span of its call tree."""
        self.install()
        self._op = op_index
        try:
            return self.call_span("bench.op", fn, args, {})
        finally:
            self._op = None
            self.restore()

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name, fn):
        hooks = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            return self.call_span(name, fn, args, kwargs, hooks)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stat = self.leaf_stats[name]
        nested = self._leaf_child

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                inner = nested.pop()
                stat[0] += 1
                stat[1] += elapsed - inner
                if nested:
                    nested[-1] += elapsed

        return wrapper

    def counting_wrapper(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for mod_name, func_name, span_name in SPANS:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), func_name)
            wrapper = self._span_wrapper(span_name, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)
        for mod_name, cls_name, method, leaf_name in LEAVES:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            self._set(cls, method, self._leaf_wrapper(leaf_name, vars(cls)[method]))
        constraint = importlib.import_module(f"{PACKAGE}.constraint")
        for cls_name in ATOM_CLASSES:
            cls = getattr(constraint, cls_name)
            self._set(
                cls, "satisfied", self.counting_wrapper("constraint.atom_checks", cls.satisfied)
            )
        system_cls = constraint.ConstraintSystem
        original_assignments = system_cls.assignments
        counts = self.counts

        def assignments(system, points):
            for a in original_assignments(system, points):
                counts["constraint.violations.assignments"] += 1
                yield a

        self._set(system_cls, "assignments", assignments)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values keyed by metric name, as (value, unit) pairs."""
        s, leaf, c = self.span_stats, self.leaf_stats, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in (
            "constraint.violations",
            "ramsey.extract",
            "corrector.repair",
            "constraint.proven_infeasible",
            "density.is_density_tuple",
        ):
            out[f"{name}.calls"] = (s[name][0], "count")
            out[f"{name}.self_s"] = (s[name][1], "s")
        for name in ("values.chart", "values.cell_of", "kernel.value_at"):
            out[f"{name}.calls"] = (leaf[name][0], "count")
            out[f"{name}.self_s"] = (leaf[name][1], "s")
        for name in (
            "corrector.audit_ae_hypothesis",
            "fileio.load",
            "fileio.write",
            "cli.correct",
            "cli.verify",
        ):
            out[f"{name}.self_s"] = (s[name][1], "s")
        for name in (
            "constraint.violations.assignments",
            "constraint.atom_checks",
            "ramsey.coloring_calls",
            "ramsey.extract.proven_absent",
            "constraint.proven_infeasible.proved",
            "corrector.attempts",
        ):
            out[name] = (c[name], "count")
        out["fileio.report_bytes"] = (c["fileio.report_bytes"], "bytes")
        out["ramsey.extract.success_ratio"] = (
            ratio(c["ramsey.extract.successes"], s["ramsey.extract"][0]), "ratio"
        )
        out["corrector.first_attempt_ok_ratio"] = (
            ratio(c["corrector.first_attempt_ok"], s["corrector.repair"][0]), "ratio"
        )
        out["trace.op_total_s"] = (
            sum(end - start for _, parent, _, _, start, end in self.spans if parent is None),
            "s",
        )
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer counters taken at span boundaries ------------------------------


def _repair_result(tracer, outcome, args, kwargs):
    escalations = len(outcome.report["escalations"])
    tracer.counts["corrector.attempts"] += 1 + escalations
    if outcome.status == "ok" and escalations == 0:
        tracer.counts["corrector.first_attempt_ok"] += 1


def _probe_result(tracer, proved, args, kwargs):
    if proved:
        tracer.counts["constraint.proven_infeasible.proved"] += 1


def _extract_args(tracer, args, kwargs):
    # the coloring is the third argument of extract_core; counting it here
    # also covers the colorings repair builds through coloring_for
    args = list(args)
    if len(args) > 2:
        args[2] = tracer.counting_wrapper("ramsey.coloring_calls", args[2])
    else:
        kwargs["coloring"] = tracer.counting_wrapper("ramsey.coloring_calls", kwargs["coloring"])
    return tuple(args), kwargs


def _extract_result(tracer, cores, args, kwargs):
    tracer.counts["ramsey.extract.successes"] += 1


def _extract_error(tracer, exc):
    if getattr(exc, "proven_absent", False):
        tracer.counts["ramsey.extract.proven_absent"] += 1


def _write_result(tracer, result, args, kwargs):
    # timing fields change length from run to run; count the rest
    fileio = sys.modules[f"{PACKAGE}.fileio"]
    doc = args[0] if args else kwargs["doc"]
    tracer.counts["fileio.report_bytes"] += len(fileio.to_json(fileio.strip_timing(doc)))


_HOOKS = {
    "corrector.repair": {"result": _repair_result},
    "constraint.proven_infeasible": {"result": _probe_result},
    "ramsey.extract": {
        "args": _extract_args,
        "result": _extract_result,
        "error": _extract_error,
    },
    "fileio.write": {"result": _write_result},
}
