"""The package surface that the benchmark in ``perfbench/`` calls or patches.

The tracer patches package functions and methods by name, and the workloads
call them with fixed arguments.  A renamed function or a dropped parameter
would make every traced run fail in ``Tracer.install`` or in the op itself,
so these tests load the benchmark's tracer and workloads by path, without
changing them, and check each name and call they rely on.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from kernel_repair.errors import ExtractionFailed
from kernel_repair.ramsey import extract_core

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


def package_module(name: str):
    return importlib.import_module(f"{tracer.PACKAGE}.{name}")


@pytest.mark.parametrize(
    "module, function", [(m, f) for m, f, _ in tracer.SPANS], ids=[s for *_, s in tracer.SPANS]
)
def test_every_span_names_a_package_function(module, function):
    assert callable(getattr(package_module(module), function))


@pytest.mark.parametrize(
    "module, cls, method", [(m, c, f) for m, c, f, _ in tracer.LEAVES], ids=[f"{c}.{f}" for _, c, f, _ in tracer.LEAVES]
)
def test_every_leaf_names_a_method_defined_on_its_class(module, cls, method):
    # the tracer reads the method from the class's own namespace
    assert callable(vars(getattr(package_module(module), cls))[method])


@pytest.mark.parametrize("cls", tracer.ATOM_CLASSES)
def test_every_atom_class_has_satisfied(cls):
    assert callable(getattr(package_module("constraint"), cls).satisfied)


def test_the_constraint_system_enumerates_assignments():
    assert callable(package_module("constraint").ConstraintSystem.assignments)


PENTAGON = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


def test_extract_core_takes_the_coloring_third_and_accepts_a_seed():
    calls = []

    def coloring(sel):
        calls.append(sel)
        return 0

    assert extract_core([[0, 1, 2]], [1], coloring, 2, seed="any") == ([0, 1],)
    assert calls


def test_a_failed_extraction_is_proven_absent():
    coloring = lambda sel: sel[0] in PENTAGON
    with pytest.raises(ExtractionFailed) as exc:
        extract_core([list(range(5))], [2], coloring, 3, seed="any")
    assert exc.value.proven_absent is True


def test_traced_ramsey_ops_install_count_and_restore():
    workload = workloads.RamseyCores()
    problems = workload.generate("contract", len(workload.shapes), "unused")
    original = package_module("ramsey").extract_core
    t = tracer.Tracer()
    absent = 0
    for i, p in enumerate(problems):
        res = t.run_op(i, workload.run, p)
        assert workload.check(p, res)
        absent += res["core"] is None
    assert package_module("ramsey").extract_core is original
    assert t.span_stats["ramsey.extract"][0] == len(problems)
    assert t.counts["ramsey.coloring_calls"] > 0
    assert t.counts["ramsey.extract.proven_absent"] == absent


def test_traced_small_batch_ops_check_and_restore(tmp_path):
    # one op of each family, so a report field or config the workload or the
    # tracer reads cannot go missing unnoticed
    workload = workloads.SmallBatch()
    problems = workload.generate("contract", len(workload.families), str(tmp_path))
    original = package_module("corrector").repair
    t = tracer.Tracer()
    for i, p in enumerate(problems):
        res = workload.finish(p, t.run_op(i, workload.run, p))
        assert workload.check(p, res), p["family"]
    assert package_module("corrector").repair is original
    assert t.span_stats["corrector.repair"][0] == len(problems)
    # every repair is one attempt
    assert t.counts["corrector.attempts"] == len(problems)


def test_traced_metric_cli_ops_check_and_restore(tmp_path):
    workload = workloads.MetricCli()
    problems = workload.generate("contract", 12, str(tmp_path))
    cli = package_module("cli")
    original = cli.cmd_correct, cli.cmd_verify
    t = tracer.Tracer()
    for i, p in enumerate(problems):
        res = workload.finish(p, t.run_op(i, workload.run, p))
        assert workload.check(p, res), res["report"]["result"]["status"]
    assert (cli.cmd_correct, cli.cmd_verify) == original
    assert t.span_stats["cli.correct"][0] == t.span_stats["cli.verify"][0] == len(problems)
