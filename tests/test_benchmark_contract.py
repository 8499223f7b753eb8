"""The package surface that the benchmark in ``perfbench/`` calls or patches.

The tracer patches package functions and methods by name, and the workloads
call them with fixed arguments.  A renamed function or a dropped parameter
would make every traced run fail in ``Tracer.install`` or in the op itself,
so these tests load the benchmark's tracer and workloads by path, without
changing them, and check each name and call they rely on.  They also pin
each workload's ``outputs_sha256`` at seed 11, so a change to any report
the benchmark digests shows here; a deliberate one updates the pin.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from helpers import CountingRandom, counted_draws
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


#: per small-batch family: whether its audit draws floats.  No family
#: places a float in a base block: in each, every block vector fails or
#: every one holds, so only trials that hit a constant need a closer look.
AUDIT_DRAWS = {
    # no override constant, so no trial can hit one
    "all-ones": False,
    "diagonal": False,
    # no constant either; symmetry and antisymmetry together fail on every
    # block vector
    "antisymmetry": False,
    # a sixteenth is a constant, so the stream is searched for hits
    "triangle": True,
    "metric": True,
    "finite3": True,
    "equality1": True,
}


def test_the_small_batch_audits_draw_and_place_only_where_needed(tmp_path, monkeypatch):
    # counts, not time, over two cycles of the families
    corrector = package_module("corrector")
    workload = workloads.SmallBatch()
    problems = workload.generate("11", 2 * len(workload.families), str(tmp_path))
    cuts = []
    float_cuts = corrector._float_cuts
    monkeypatch.setattr(corrector, "_float_cuts", lambda r: cuts.append(r) or float_cuts(r))
    monkeypatch.setattr(random, "Random", CountingRandom)
    for p in problems:
        _, drawn = counted_draws(lambda: workload.run(p))
        assert (drawn > 0) == AUDIT_DRAWS[p["family"]], p["family"]
    assert cuts == []


#: ``outputs_sha256`` of each workload's fixed prefix at seed "11"
PINNED_OUTPUTS = {
    "metric-cli": "c689fd866f818f77f1c8fac5400c338c1cc761b53dc4aaf4d195ac9578a81c21",
    "small-batch": "f2c8f9a16f67d9154d1d6b010ab1afec0d3bbbac15cb0f1f59a24e76ebac584e",
    "ramsey-cores": "3880f0b7a59dff03f98bdb145df0f92bad6d7e0cd13fd3e0460cf745935e39d9",
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_the_fixed_prefix_reproduces_the_pinned_outputs(name, tmp_path):
    # the digests of perfbench/run.py's Loop: one per op, then one of all
    workload = workloads.WORKLOADS[name]()
    digests = []
    for p in workload.generate("11", workload.prefix, str(tmp_path)):
        res = workload.finish(p, workload.run(p))
        assert workload.check(p, res)
        digests.append(hashlib.sha256(workloads.digest_view(workload, res)).hexdigest())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == PINNED_OUTPUTS[name]
