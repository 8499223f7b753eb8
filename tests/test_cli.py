"""Command-line surface: output text, report files, exit-code contract."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_verify, suite_problem
from kernel_repair import cli, corrector
from kernel_repair.cli import main
from kernel_repair.constraint import (
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    metric_system,
    triangle_free_system,
)
from kernel_repair.corrector import AuditResult
from kernel_repair.demos import (
    almost_metric_kernel,
    antisymmetry_system,
    diagonal_contrast_kernel,
    diagonal_contrast_system,
    loopy_bipartite_kernel,
    oriented_kernel,
)
from kernel_repair.errors import ContractError
from kernel_repair.fileio import (
    MAX_KERNEL_ARITY,
    MAX_REPAIR_TABLE,
    MAX_SWEEP_ASSIGNMENTS,
    estimated_selections,
    load_json,
    save_constraint,
    save_kernel,
    strip_timing,
    to_json,
)
from kernel_repair.kernel import CoordIs, CoordsEqual, ExceptionPiece, StepKernel
from kernel_repair.rational import frac_str
from kernel_repair.values import BoundedInterval, CompactifiedRay

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def step_1d():
    return StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1)],
    )


def constant_kernel(value, arity=2):
    return StepKernel.from_flat(
        arity=arity,
        resolution=1,
        space=BoundedInterval(F(1)),
        flat_values=[value],
    )


def kernel_file(tmp_path, kernel, name="kernel.json"):
    path = tmp_path / name
    save_kernel(kernel, str(path))
    return str(path)


def constraint_file(tmp_path, system, name="system.json"):
    path = tmp_path / name
    save_constraint(system, BoundedInterval(F(1)), str(path))
    return str(path)


# --- eval ---


def test_eval_prints_the_value(tmp_path, capsys):
    path = kernel_file(tmp_path, step_1d())
    code, out, _ = run(capsys, "eval", "--kernel", path, "--point", "3/4")
    assert code == 0
    assert out == "1\n"


def test_eval_wrong_arity_exits_1(tmp_path, capsys):
    path = kernel_file(tmp_path, step_1d())
    code, _, err = run(capsys, "eval", "--kernel", path, "--point", "1/4,3/4")
    assert code == 1
    assert err.startswith("error:")


def test_eval_rejects_an_oversized_kernel_quickly(tmp_path, capsys):
    # 3**100000000 base values would have to be computed before the size
    # check could fail; the length is refused without that power
    path = tmp_path / "huge.json"
    doc = load_json(kernel_file(tmp_path, step_1d()), "kernel")
    doc.update(arity=100_000_000, resolution=3, base=["0"])
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "eval", "--kernel", str(path), "--point", "1/2")
    assert code == 1
    assert out == ""
    assert "expected 3^100000000 base values, got 1" in err


@pytest.mark.parametrize("resolution, base", [(1, ["0"]), (0, []), (-1, ["0"])])
def test_eval_refuses_a_huge_arity_below_resolution_two_quickly(
    tmp_path, capsys, resolution, base
):
    # at resolution 1 one base value serves every arity, so only the cap
    # stops a block tuple of 100,000,000 entries from being built
    path = tmp_path / "flat.json"
    doc = load_json(kernel_file(tmp_path, step_1d()), "kernel")
    doc.update(arity=100_000_000, resolution=resolution, base=base, exceptions=[])
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--kernel", str(path), "--point", "1/2")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"arity 100000000 exceeds the cap {MAX_KERNEL_ARITY}" in err


def test_eval_checks_a_high_arity_symmetric_base_quickly(tmp_path, capsys):
    # comparing the block with all 12! permutations of it would take hours
    path = tmp_path / "wide.json"
    doc = load_json(kernel_file(tmp_path, constant_kernel(F(1, 2))), "kernel")
    doc.update(arity=12, symmetric_base=True)
    path.write_text(json.dumps(doc))
    point = ",".join(["1/3"] * 12)
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--kernel", str(path), "--point", point)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (0, "1/2\n")


def test_audit_refuses_a_huge_symmetry_shorthand_quickly(tmp_path, capsys):
    # arity 7 over 7 variables would rename 5039 equalities under 5040 maps
    path = tmp_path / "sym7.json"
    path.write_text('{"mode":"multiset","arity":7,"variables":7,"atoms":[{"kind":"symmetry"}]}')
    kernel = kernel_file(tmp_path, constant_kernel(F(1, 2), arity=7))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "audit", "--kernel", kernel, "--constraint", str(path), "--seed", "0"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "expands to more than 50000 equalities" in err


#: 101 bytes: one symmetry equality over 8 variables with repeats, which
#: 30 points turn into 30^8 (about 6.6e11) assignments
HUGE_SWEEP = (
    '{"mode":"multiset","arity":2,"variables":8,'
    '"atoms":[{"kind":"equality","left":[1,2],"right":[2,1]}]}'
)


@pytest.mark.parametrize("command", ["correct", "verify"])
def test_a_sweep_above_the_cap_is_refused_quickly(tmp_path, capsys, command):
    cpath = tmp_path / "huge-sweep.json"
    cpath.write_text(HUGE_SWEEP)
    kpath = kernel_file(tmp_path, constant_kernel(F(1, 2)))
    points = [f"{2 * i + 1}/64" for i in range(30)]
    if command == "correct":
        rest = ["--points", ",".join(points), "--epsilon", "1/10", "--seed", "0"]
    else:
        rpath = tmp_path / "report.json"
        rpath.write_text(to_json(
            {"result": {"part": 2, "points": points, "epsilon": "1/10", "values": {}}}
        ))
        rest = ["--report", str(rpath)]
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--kernel", kpath, "--constraint", str(cpath), *rest)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"refused: estimated 30^8 assignments, more than {MAX_SWEEP_ASSIGNMENTS}" in err


#: 114 bytes: one variable sweeps 30 assignments, but the value table of
#: an arity-8 kernel over 30 points has 30^8 tuples
HUGE_TABLE = (
    '{"mode":"distinct","arity":8,"variables":1,'
    '"atoms":[{"kind":"finite","slot":[1,1,1,1,1,1,1,1],"allowed":["1/2"]}]}'
)


def refused_correct(tmp_path, capsys, constraint_text, kernel, points):
    cpath = tmp_path / "constraint.json"
    cpath.write_text(constraint_text)
    kpath = kernel_file(tmp_path, kernel)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "correct", "--kernel", kpath, "--constraint", str(cpath),
        "--points", points, "--epsilon", "1/10", "--seed", "0",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    return err


def test_a_value_table_above_the_cap_is_refused_quickly(tmp_path, capsys):
    points = ",".join(f"{2 * i + 1}/64" for i in range(30))
    err = refused_correct(tmp_path, capsys, HUGE_TABLE, constant_kernel(F(1, 2), arity=8), points)
    assert f"refused: estimated 30^8 value-table tuples, more than {MAX_REPAIR_TABLE}" in err


def test_correct_names_an_arity_mismatch_before_any_size_cap(tmp_path, capsys):
    # an arity-2 kernel under the arity-8 constraint: 30 points would pass
    # the table cap for arity 2, and the table cap read the constraint's arity
    points = ",".join(f"{2 * i + 1}/64" for i in range(30))
    err = refused_correct(tmp_path, capsys, HUGE_TABLE, constant_kernel(F(1, 2)), points)
    assert err == "error: system arity 8 does not match kernel arity 2\n"


def test_the_repair_caps_refuse_only_past_the_cap():
    system = triangle_free_system(mode="multiset")  # arity 2
    # C(1414, 2) = 999,691 tuples
    cli._refuse_large_repair(system, 1413)
    with pytest.raises(ContractError, match=r"C\(1415\+2-1,2\) value-table tuples"):
        cli._refuse_large_repair(system, 1415)


def test_audit_refuses_trials_above_the_cap(tmp_path, capsys):
    kpath = kernel_file(tmp_path, constant_kernel(F(1)))
    cpath = constraint_file(tmp_path, triangle_free_system())
    trials = str(MAX_SWEEP_ASSIGNMENTS + 1)
    code, out, err = run(
        capsys,
        "audit", "--kernel", kpath, "--constraint", cpath, "--trials", trials, "--seed", "7",
    )
    assert (code, out) == (1, "")
    # every system has a variable, so the draw cap refuses these trials
    assert f"refused: estimated {trials}*3 audit draws, more than {MAX_SWEEP_ASSIGNMENTS}" in err


#: 108 bytes: one finite atom, but each audit trial draws one float per
#: variable, 100,000,000 of them
HUGE_AUDIT = (
    '{"mode":"distinct","arity":2,"variables":100000000,'
    '"atoms":[{"kind":"finite","slot":[1,2],"allowed":["1"]}]}'
)


def test_audit_refuses_draws_above_the_cap_quickly(tmp_path, capsys):
    cpath = tmp_path / "huge-audit.json"
    cpath.write_text(HUGE_AUDIT)
    kpath = kernel_file(tmp_path, constant_kernel(F(1)))
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "audit", "--kernel", kpath, "--constraint", str(cpath), "--trials", "1", "--seed", "7",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "refused: estimated 1*100000000 audit draws, more than 10000000" in err
    assert "Traceback" not in err


def test_audit_names_an_arity_mismatch_before_any_size_cap(tmp_path, capsys):
    cpath = tmp_path / "huge-audit.json"
    cpath.write_text(HUGE_AUDIT)
    kpath = kernel_file(tmp_path, constant_kernel(F(1), arity=1))
    code, out, err = run(
        capsys,
        "audit", "--kernel", kpath, "--constraint", str(cpath), "--trials", "1", "--seed", "7",
    )
    assert (code, out) == (1, "")
    assert err == "error: system arity 2 does not match kernel arity 1\n"


@pytest.mark.parametrize("trials, refused", [(3_333_333, False), (3_333_334, True)])
def test_audit_draw_cap_boundary(tmp_path, capsys, monkeypatch, trials, refused):
    # three variables per trial: 9,999,999 draws pass, 10,000,002 do not
    kpath = kernel_file(tmp_path, constant_kernel(F(1)))
    cpath = constraint_file(tmp_path, triangle_free_system())
    monkeypatch.setattr(
        cli, "audit_ae_hypothesis", lambda *args, **kw: AuditResult(1, 0, 0.0, 1.0)
    )
    code, _, err = run(
        capsys,
        "audit", "--kernel", kpath, "--constraint", cpath, "--trials", str(trials), "--seed", "7",
    )
    assert code == (1 if refused else 0)
    assert ("audit draws" in err) == refused


def one_trial_audit(tmp_path, variables):
    cpath = tmp_path / "wide-audit.json"
    cpath.write_text(
        '{"mode":"distinct","arity":2,"variables":%d,'
        '"atoms":[{"kind":"finite","slot":[1,2],"allowed":["1"]}]}' % variables
    )
    return str(cpath)


@pytest.mark.parametrize("variables, refused", [(MAX_REPAIR_TABLE, False), (MAX_REPAIR_TABLE + 1, True)])
def test_audit_refuses_one_trial_above_the_table_cap(tmp_path, capsys, monkeypatch, variables, refused):
    # one trial holds all its floats at once, so its draws are capped
    # like a value table, although the total stays under the draw cap
    cpath = one_trial_audit(tmp_path, variables)
    kpath = kernel_file(tmp_path, constant_kernel(F(1)))
    monkeypatch.setattr(
        cli, "audit_ae_hypothesis", lambda *args, **kw: AuditResult(1, 0, 0.0, 1.0)
    )
    start = time.perf_counter()
    code, out, err = run(
        capsys,
        "audit", "--kernel", kpath, "--constraint", cpath, "--trials", "1", "--seed", "7",
    )
    assert time.perf_counter() - start < 1.0
    assert code == (1 if refused else 0)
    if refused:
        assert out == ""
        assert f"refused: {variables} draws in one audit trial, more than {MAX_REPAIR_TABLE}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("arity", [1, 3])
def test_audit_refuses_an_arity_mismatch(tmp_path, capsys, arity):
    # a kernel of arity 2 under a constraint of arity 1 or 3
    cpath = tmp_path / "mismatch.json"
    cpath.write_text(json.dumps({
        "mode": "distinct", "arity": arity, "variables": arity,
        "atoms": [{"kind": "finite", "slot": list(range(1, arity + 1)), "allowed": ["1"]}],
    }))
    kpath = kernel_file(tmp_path, constant_kernel(F(1)))
    code, out, err = run(
        capsys, "audit", "--kernel", kpath, "--constraint", str(cpath), "--seed", "7"
    )
    assert (code, out) == (1, "")
    assert f"error: system arity {arity} does not match kernel arity 2" in err
    assert "Traceback" not in err


def test_main_dispatches_to_the_current_command_function(tmp_path, capsys, monkeypatch):
    # the parser is built once, but a replaced cmd_* function still runs
    path = kernel_file(tmp_path, step_1d())
    assert run(capsys, "eval", "--kernel", path, "--point", "3/4")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.report) or 7)
    code, _, _ = run(
        capsys, "verify", "--kernel", path, "--constraint", "c.json", "--report", "r.json"
    )
    assert (code, seen) == (7, ["r.json"])


# --- density ---

# one-dimensional step kernel, value 0 below 1/2 and 1 above: the box about
# the cut point only leaves the right block once m is even


def test_density_at_the_cut_depends_on_alignment(tmp_path, capsys):
    path = kernel_file(tmp_path, step_1d())
    base = ("density", "--kernel", path, "--point", "1/2", "--epsilon", "3/10")
    code, out, _ = run(capsys, *base, "--m", "3")
    assert (code, out) == (0, "1/2\n")
    code, out, _ = run(capsys, *base, "--m", "4")
    assert (code, out) == (0, "1\n")


def test_density_with_explicit_target_value(tmp_path, capsys):
    path = kernel_file(tmp_path, step_1d())
    code, out, _ = run(
        capsys,
        "density", "--kernel", path, "--point", "1/2", "--epsilon", "3/10",
        "--m", "4", "--target-value", "0",
    )
    assert (code, out) == (0, "0\n")


@pytest.mark.parametrize("target", [(), ("--target-value", "0")])
@pytest.mark.parametrize(
    "point, m, message",
    [
        ("1/4,1/2", "0", "refinement level m must be at least 1"),
        ("1/4,1/2", "-1", "refinement level m must be at least 1"),
        ("1/4,1/2", "-2", "refinement level m must be at least 1"),
        ("1/4", "2", "expected 2 coordinates, got 1"),
        ("5/4,1/2", "2", "coordinate 5/4 outside [0, 1)"),
    ],
)
def test_density_refuses_a_bad_level_or_point(tmp_path, capsys, target, point, m, message):
    kernel = StepKernel.from_flat(
        arity=2, resolution=2, space=BoundedInterval(F(1)), flat_values=[F(0), F(1), F(1), F(0)]
    )
    path = kernel_file(tmp_path, kernel)
    code, out, err = run(
        capsys,
        "density", "--kernel", path, "--point", point, "--epsilon", "3/10", f"--m={m}", *target,
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


# --- correct ---


def correct_argv(tmp_path, out_name, seed="cli"):
    kernel, system, points, eps = suite_problem(0, "distinct")
    kpath = kernel_file(tmp_path, kernel)
    cpath = constraint_file(tmp_path, system)
    return [
        "correct",
        "--kernel", kpath,
        "--constraint", cpath,
        "--points", ",".join(frac_str(x) for x in points),
        "--epsilon", frac_str(eps),
        "--seed", seed,
        "--out", str(tmp_path / out_name),
    ]


def test_correct_writes_a_deterministic_report(tmp_path, capsys):
    code, out, err = run(capsys, *correct_argv(tmp_path, "first.json"))
    assert code == 0
    assert out == ""  # report went to the file
    assert "status: ok" in err

    code, _, _ = run(capsys, *correct_argv(tmp_path, "second.json"))
    assert code == 0
    first = strip_timing(load_json(str(tmp_path / "first.json"), "report"))
    second = strip_timing(load_json(str(tmp_path / "second.json"), "report"))
    assert first == second

    assert first["result"]["status"] == "ok"
    assert first["inputs"]["seed"] == "cli"
    assert first["inputs"]["points"] == sorted(
        first["inputs"]["points"], key=Fraction
    )


def test_correct_without_out_prints_the_report(tmp_path, capsys):
    argv = correct_argv(tmp_path, "unused.json")
    argv = argv[: argv.index("--out")]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "ok"


def test_correct_reports_honest_failure_with_exit_2(tmp_path, capsys):
    kpath = kernel_file(tmp_path, constant_kernel(F(0)))
    cpath = str(tmp_path / "impossible.json")
    with open(cpath, "w") as fh:
        fh.write(to_json({
            "mode": "distinct",
            "arity": 2,
            "variables": 2,
            "atoms": [{"kind": "finite", "slot": [1, 2], "allowed": ["1"]}],
        }))
    code, _, err = run(
        capsys,
        "correct", "--kernel", kpath, "--constraint", cpath,
        "--points", "1/16,3/16", "--epsilon", "1/10", "--seed", "s",
        "--out", str(tmp_path / "report.json"),
    )
    assert code == 2
    assert err == "status: failed\n"
    doc = load_json(str(tmp_path / "report.json"), "report")
    assert doc["result"]["status"] == "failed"


@pytest.mark.parametrize("command", ["correct", "demo"])
def test_an_unwritable_out_is_one_error_line(tmp_path, capsys, command):
    out_path = tmp_path / "no-such-dir" / "r.json"
    if command == "correct":
        argv = correct_argv(tmp_path, "unused.json")
        argv[argv.index("--out") + 1] = str(out_path)
    else:
        argv = ["demo", "remark", "--seed", "0", "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write report file {out_path}: ")
    assert err.count("\n") == 1


# --- ramsey ---


def test_ramsey_finds_a_core_under_one_color(capsys):
    code, out, _ = run(
        capsys,
        "ramsey", "--size", "3", "--profile", "1", "--target", "3",
        "--colors", "1", "--seed", "any",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cores"] == [["0.0", "0.1", "0.2"]]


def test_ramsey_proven_absence_exits_2(capsys):
    # seed chosen so the two singleton selections receive different colors
    code, out, _ = run(
        capsys,
        "ramsey", "--size", "2", "--profile", "1", "--target", "2",
        "--colors", "2", "--seed", "0",
    )
    assert code == 2
    assert out == "no monochromatic core: proven absent\n"


def test_ramsey_default_search_proves_absence(capsys):
    # seed 9 colors the pairs of five elements without a one-colored triple
    code, out, _ = run(
        capsys,
        "ramsey", "--size", "5", "--profile", "2", "--target", "3",
        "--colors", "2", "--seed", "9",
    )
    assert code == 2
    assert out == "no monochromatic core: proven absent\n"


def test_ramsey_same_seed_same_core(capsys):
    argv = (
        "ramsey", "--size", "4", "--profile", "2", "--target", "3",
        "--colors", "2", "--seed", "7",
    )
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_ramsey_profile_must_match_parts(capsys):
    code, _, err = run(
        capsys,
        "ramsey", "--parts", "2", "--size", "2", "--profile", "1",
        "--target", "2", "--colors", "1", "--seed", "x",
    )
    assert code == 1
    assert "profile length" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--size", "5", "--profile=-1", "--target", "2"), "subset sizes must be nonnegative"),
        (("--size", "150", "--profile", "3", "--target", "1"), "subset size 3 exceeds the core size 1"),
        (("--size", "4", "--profile", "1", "--target", "5"), "core size 5 exceeds a part of 4 elements"),
        (("--size", "4", "--profile", "1", "--target", "0"), "core size must be at least 1"),
    ],
)
def test_ramsey_validates_before_coloring(capsys, monkeypatch, argv, message):
    def no_table(*args):
        raise AssertionError("the coloring table was built before validation")

    monkeypatch.setattr(cli, "all_selections", no_table)
    code, out, err = run(capsys, "ramsey", *argv, "--colors", "2", "--seed", "1")
    assert (code, out) == (1, "")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, shown",
    [
        (("--size", "1000", "--profile", "3", "--target", "5"), "C(1000,3)"),
        (("--parts", "3", "--size", "200", "--profile", "1,2,1", "--target", "2"), "C(200,1)*C(200,2)*C(200,1)"),
        (("--size", "1000000", "--profile", "500000", "--target", "500000"), "C(1000000,500000)"),
    ],
)
def test_ramsey_refuses_a_table_above_the_cap_quickly(capsys, argv, shown):
    start = time.perf_counter()
    code, out, err = run(capsys, "ramsey", *argv, "--colors", "2", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"refused: estimated {shown} colored selections, more than {MAX_REPAIR_TABLE}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size", [MAX_REPAIR_TABLE + 1, 10**20])
def test_ramsey_refuses_parts_above_the_cap_quickly(capsys, size):
    # a zero profile colors one selection, but the parts alone would be huge
    start = time.perf_counter()
    code, out, err = run(
        capsys, "ramsey", "--size", str(size), "--profile", "0", "--target", "1",
        "--colors", "2", "--seed", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"refused: {size} elements per part, more than {MAX_REPAIR_TABLE}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size, refused", [(1000, False), (1001, True)])
def test_ramsey_table_cap_boundary(capsys, monkeypatch, size, refused):
    # two singleton parts: 1000 * 1000 selections pass, 1001 * 1001 do not
    assert 1000 * 1000 == MAX_REPAIR_TABLE
    monkeypatch.setattr(cli, "all_selections", lambda parts, sizes: [])
    monkeypatch.setattr(cli, "extract_core", lambda parts, *args, **kw: [p[:1] for p in parts])
    code, _, err = run(
        capsys,
        "ramsey", "--parts", "2", "--size", str(size), "--profile", "1,1", "--target", "1",
        "--colors", "2", "--seed", "1",
    )
    assert code == (1 if refused else 0)
    assert ("refused" in err) == refused


def test_estimated_selections_counts_exactly_up_to_the_cap():
    for size in range(0, 12):
        for t in range(0, size + 1):
            assert estimated_selections(size, [t]) == math.comb(size, t)
            assert estimated_selections(size, [t, t, 0]) == math.comb(size, t) ** 2
    assert estimated_selections(10**12, [10**11]) > MAX_REPAIR_TABLE
    assert estimated_selections(1000, [1, 1]) == MAX_REPAIR_TABLE
    assert estimated_selections(1001, [1, 1]) > MAX_REPAIR_TABLE


# --- demo ---


def test_demo_remark_summary_and_report_file(tmp_path, capsys):
    out_path = tmp_path / "remark.json"
    code, out, _ = run(
        capsys, "demo", "remark", "--seed", "0", "--out", str(out_path)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["symmetrized_status"] == "infeasible"
    assert summary["antisymmetry_status"] == "ok"
    doc = load_json(str(out_path), "report")
    assert set(doc) == {"summary", "reports"}
    assert doc["summary"] == summary


def test_demo_requires_a_known_name(capsys):
    code, _, err = run(capsys, "demo", "no-such-demo", "--seed", "0")
    assert code == 1
    assert "invalid choice" in err


# --- audit ---


def test_audit_counts_every_violation_of_an_all_ones_kernel(tmp_path, capsys):
    kpath = kernel_file(tmp_path, constant_kernel(F(1)))
    cpath = constraint_file(tmp_path, triangle_free_system())
    code, out, _ = run(
        capsys,
        "audit", "--kernel", kpath, "--constraint", cpath,
        "--trials", "200", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 200
    assert doc["violations"] == 200
    assert doc["rate"] == 1.0
    assert doc["interval"][1] == 1.0


# --- verify ---


def equality_files(tmp_path, mode="distinct"):
    kpath = kernel_file(tmp_path, constant_kernel(F(1, 2)))
    cpath = str(tmp_path / "equality.json")
    with open(cpath, "w") as fh:
        fh.write(to_json({
            "mode": mode,
            "arity": 2,
            "variables": 2,
            "atoms": [{"kind": "equality", "left": [1, 2], "right": [2, 1]}],
        }))
    return kpath, cpath


def symmetric_values():
    return {
        "1/4,1/4": "1/2",
        "1/4,3/4": "3/5",
        "3/4,1/4": "3/5",
        "3/4,3/4": "1/2",
    }


def report_file(tmp_path, values, part=1, epsilon="0"):
    path = tmp_path / "report.json"
    path.write_text(to_json({
        "result": {
            "part": part,
            "points": ["1/4", "3/4"],
            "epsilon": epsilon,
            "values": values,
        }
    }))
    return str(path)


def test_verify_accepts_a_symmetric_table(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path)
    rpath = report_file(tmp_path, symmetric_values())
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert code == 0
    assert "all atoms hold" in out


def test_verify_flags_a_tampered_value(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path)
    values = symmetric_values()
    values["3/4,1/4"] = "1/2"  # now 1/10 away from its mirror
    rpath = report_file(tmp_path, values)
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert code == 2
    assert "violated:" in out


def test_verify_part_two_reads_sorted_keys(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path, "multiset")
    values = {"1/4,1/4": "1/2", "1/4,3/4": "3/5", "3/4,3/4": "1/2"}
    rpath = report_file(tmp_path, values, part=2)
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert code == 0
    assert "all atoms hold" in out


@pytest.mark.parametrize("mode, checked", [("distinct", "6"), ("multiset", "3^2")])
def test_verify_counts_the_assignments_it_sweeps(tmp_path, capsys, mode, checked):
    kpath = kernel_file(tmp_path, constant_kernel(F(1, 2)))
    cpath = str(tmp_path / "equality.json")
    with open(cpath, "w") as fh:
        fh.write(to_json({
            "mode": mode,
            "arity": 2,
            "variables": 2,
            "atoms": [{"kind": "equality", "left": [1, 2], "right": [2, 1]}],
        }))
    points = ["1/4", "1/2", "3/4"]
    rpath = tmp_path / "report.json"
    rpath.write_text(to_json({
        "result": {
            "part": 2 if mode == "multiset" else 1,
            "points": points,
            "epsilon": "0",
            # every tuple correct writes: the sorted ones in multiset mode
            "values": {
                f"{a},{b}": "1/2" for a in points for b in points
                if mode == "distinct" or F(a) <= F(b)
            },
        }
    }))
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", str(rpath)
    )
    assert code == 0
    assert f"checked {checked} assignments: all atoms hold" in out


def test_verify_incomplete_table_exits_1(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path)
    values = symmetric_values()
    del values["3/4,1/4"]
    rpath = report_file(tmp_path, values)
    code, _, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert code == 1
    assert "no value for tuple" in err


def test_verify_report_without_repair_data_exits_1(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path)
    rpath = tmp_path / "empty.json"
    rpath.write_text("{}\n")
    code, _, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath,
        "--report", str(rpath),
    )
    assert code == 1
    assert "missing repair data" in err


def test_verify_end_to_end_on_a_real_report(tmp_path, capsys):
    code, _, _ = run(capsys, *correct_argv(tmp_path, "real.json"))
    assert code == 0
    kernel, system, _, _ = suite_problem(0, "distinct")
    code, out, _ = run(
        capsys,
        "verify",
        "--kernel", kernel_file(tmp_path, kernel, "k2.json"),
        "--constraint", constraint_file(tmp_path, system, "c2.json"),
        "--report", str(tmp_path / "real.json"),
    )
    assert code == 0
    assert "all atoms hold" in out


def test_verify_takes_the_lookup_from_the_constraint_not_the_part(tmp_path, capsys):
    rpath, kpath, cpath = real_report_and_files(tmp_path, capsys)
    doc = load_json(rpath, "report")
    values = doc["result"]["values"]
    points = doc["result"]["points"]
    # break symmetry at an unsorted key, which a sorted lookup never reads
    key = f"{points[1]},{points[0]}"
    values[key] = "1" if values[key] == "0" else "0"
    argv = ["verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath]
    # part 1: the distinct-mode sweep reads the broken value
    doc["result"]["part"] = 1
    Path(rpath).write_text(to_json(doc))
    code, out, _ = run(capsys, *argv)
    assert code == 2 and "violated:" in out
    # part 2 claims sorted lookups for a distinct-mode constraint: refused
    doc["result"]["part"] = 2
    Path(rpath).write_text(to_json(doc))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (
        f"error: report file {rpath}: its part 2 does not match the constraint's distinct mode\n"
    )


def real_report_and_files(tmp_path, capsys):
    assert run(capsys, *correct_argv(tmp_path, "real.json"))[0] == 0
    kernel, system, _, _ = suite_problem(0, "distinct")
    return (
        str(tmp_path / "real.json"),
        kernel_file(tmp_path, kernel, "k2.json"),
        constraint_file(tmp_path, system, "c2.json"),
    )


def test_verify_prints_the_same_with_and_without_matching_inputs(tmp_path, capsys):
    rpath, kpath, cpath = real_report_and_files(tmp_path, capsys)
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    bare = tmp_path / "bare.json"
    bare.write_text(to_json({"result": load_json(rpath, "report")["result"]}))
    assert (code, out) == run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", str(bare)
    )[:2]
    assert code == 0


def test_verify_refuses_a_report_of_another_kernel(tmp_path, capsys):
    rpath, _, cpath = real_report_and_files(tmp_path, capsys)
    kernel, _, _, _ = suite_problem(0, "distinct")
    other = kernel.with_exceptions((ExceptionPiece((CoordIs(1, F(1, 7)),), F(0)),))
    kpath = kernel_file(tmp_path, other, "other.json")
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert (code, out) == (1, "")
    assert f"inputs.kernel differs from {kpath}" in err


def test_verify_refuses_a_report_of_another_constraint(tmp_path, capsys):
    rpath, kpath, _ = real_report_and_files(tmp_path, capsys)
    cpath = constraint_file(tmp_path, triangle_free_system(mode="multiset"), "other.json")
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert (code, out) == (1, "")
    assert f"inputs.constraint differs from {cpath}" in err


# --- verify: every derived field ---


def correct_then_verify(tmp_path, capsys, kernel, system, points, eps):
    """The report ``correct`` writes, and verify's ``(code, stdout, stderr)`` on it."""
    kpath = kernel_file(tmp_path, kernel)
    cpath = str(tmp_path / "system.json")
    save_constraint(system, kernel.space, cpath)
    rpath = tmp_path / "report.json"
    common = ["--kernel", kpath, "--constraint", cpath]
    run(
        capsys, "correct", *common, "--points", ",".join(map(frac_str, points)),
        "--epsilon", frac_str(eps), "--seed", "0", "--out", str(rpath),
    )
    return rpath, run(capsys, "verify", *common, "--report", str(rpath))


def demo_problems():
    """(kernel, system, points, epsilon) of every repair the demos run."""
    six = (F(1, 10), F(1, 5), F(3, 10), F(3, 5), F(7, 10), F(4, 5))
    two = (F(1, 5), F(7, 10))
    all_ones = StepKernel.from_flat(2, 2, BoundedInterval(F(1)), [F(1)] * 4, symmetric_base=True)
    return [
        (loopy_bipartite_kernel(), triangle_free_system(mode="multiset"), six, F(1, 10)),
        (all_ones, triangle_free_system(mode="multiset"), six, F(1, 10)),
        (almost_metric_kernel(), metric_system(), (F(1, 10), F(3, 5), F(9, 10)), F(1, 50)),
        (oriented_kernel(), antisymmetry_system(symmetrized=True), two, F(0)),
        (oriented_kernel(), antisymmetry_system(symmetrized=False), two, F(0)),
        (diagonal_contrast_kernel(), diagonal_contrast_system(), two, F(1, 10)),
    ]


@pytest.mark.parametrize("index", range(6))
def test_verify_rederives_every_field_of_a_demo_report(tmp_path, capsys, index):
    rpath, (code, out, err) = correct_then_verify(tmp_path, capsys, *demo_problems()[index])
    result = load_json(str(rpath), "report")["result"]
    # a sweep that fails exits 2 as before; no field differs either way
    assert code == (2 if result["violations"] else 0)
    assert "mismatch" not in out and err == ""


def test_verify_rederives_a_failed_agreement(tmp_path, capsys):
    # the repeated constant 1/2 under a diagonal piece: the sweep holds, the
    # kernel disagrees at (1/2, 1/2), and the report says failed
    kernel = StepKernel.from_flat(
        arity=2, resolution=1, space=BoundedInterval(F(1)), flat_values=[F(0)],
        exceptions=(
            ExceptionPiece((CoordIs(1, F(1, 2)),), F(0)),
            ExceptionPiece((CoordsEqual(1, 2),), F(1)),
        ),
    )
    system = ConstraintSystem(2, 1, "distinct", (FiniteValuesAtom((1, 1), {F(0), F(1)}),))
    rpath, verified = correct_then_verify(
        tmp_path, capsys, kernel, system, (F(1, 4), F(1, 2)), F(1, 10)
    )
    result = load_json(str(rpath), "report")["result"]
    assert (result["status"], result["agreement_failures"]) == ("failed", ["1/2,1/2"])
    assert verified == (0, "checked 2 assignments: all atoms hold\n", "")


#: one field of a correct report of the loopy bipartite kernel, tampered,
#: and the line verify prints for it
TAMPERS = {
    "density_closeness": (
        lambda r: r["density_closeness"].update({"1/10,1/10": {"density": True, "dist": "1"}}),
        "density_closeness at 1/10,1/10",
    ),
    "agreement_failures": (
        lambda r: r.update(agreement_failures=["1/10,3/10"]), "agreement_failures at 1/10,3/10"
    ),
    "status": (lambda r: r.update(status="failed"), "status"),
    "probe": (lambda r: r.update(probe={"ran": True, "proven_infeasible": True}), "probe"),
    "verdicts": (lambda r: r.update(verdicts=[]), "verdicts"),
    "mode": (lambda r: r.update(mode="distinct"), "mode"),
    "escalations": (
        lambda r: r.update(escalations=[{"reason": "agreement", "m": 2}]), "escalations"
    ),
    "violations": (
        lambda r: r.update(violations=[{"tuple": "1/10,1/10,1/10", "atom": "x"}]), "violations"
    ),
}


@pytest.mark.parametrize("field", sorted(TAMPERS))
def test_verify_names_a_tampered_field(tmp_path, capsys, field):
    system = triangle_free_system(mode="multiset")
    points = (F(1, 10), F(3, 10), F(7, 10))
    rpath, verified = correct_then_verify(
        tmp_path, capsys, loopy_bipartite_kernel(), system, points, F(1, 10)
    )
    checked = "checked 3^3 assignments: all atoms hold\n"
    assert verified == (0, checked, "")
    doc = load_json(str(rpath), "report")
    tamper, shown = TAMPERS[field]
    tamper(doc["result"])
    rpath.write_text(to_json(doc))
    code, out, err = run(
        capsys, "verify", "--kernel", str(tmp_path / "kernel.json"),
        "--constraint", str(tmp_path / "system.json"), "--report", str(rpath),
    )
    assert (code, out, err) == (2, f"{checked}mismatch: {shown}\n", "")


@pytest.mark.parametrize("key", ["1/2,1/2", "3/5,1/10", "0.1,0.1"])
def test_verify_refuses_a_value_at_no_tuple_of_the_report(tmp_path, capsys, key):
    # off the points, unsorted under the multiset metric system, and a
    # non-canonical spelling of a tuple the table has: correct writes none
    rpath, verified = correct_then_verify(
        tmp_path, capsys, almost_metric_kernel(), metric_system(),
        (F(1, 10), F(3, 5), F(9, 10)), F(1, 50),
    )
    assert verified == (0, "checked 3^3 assignments: all atoms hold\n", "")
    doc = load_json(str(rpath), "report")
    doc["result"]["values"][key] = "7"
    rpath.write_text(to_json(doc))
    code, out, err = run(
        capsys, "verify", "--kernel", str(tmp_path / "kernel.json"),
        "--constraint", str(tmp_path / "system.json"), "--report", str(rpath),
    )
    assert_one_error_line(code, out, err)
    assert err == (
        f"error: report file {rpath}: values has {key!r}, which is no sorted tuple of its points\n"
    )


def test_correct_and_verify_sweep_nothing_with_fewer_points_than_variables(tmp_path, capsys):
    # 11!/(11-12)! = 0 injective assignments: nothing to refuse, nothing violated
    system = ConstraintSystem(2, 12, "distinct", (EqualityAtom((1, 2), (2, 1)),))
    points = tuple(F(2 * i + 1, 22) for i in range(11))
    rpath, verified = correct_then_verify(
        tmp_path, capsys, constant_kernel(F(1, 2)), system, points, F(0)
    )
    assert load_json(str(rpath), "report")["result"]["status"] == "ok"
    assert verified == (0, "checked 0 assignments: all atoms hold\n", "")


@pytest.mark.parametrize(
    "field, tampered, shown",
    [
        ("density_closeness", {"1/10,1/10": None}, "density_closeness at 1/10,1/10"),
        ("density_closeness", [], "density_closeness"),
        ("agreement_failures", [None], "agreement_failures"),
        ("agreement_failures", ["1/10,1/10", None], "agreement_failures at 1/10,1/10"),
    ],
)
def test_verify_names_a_malformed_per_tuple_field(tmp_path, capsys, field, tampered, shown):
    rpath, _ = correct_then_verify(
        tmp_path, capsys, loopy_bipartite_kernel(), triangle_free_system(mode="multiset"),
        (F(1, 10), F(3, 10), F(7, 10)), F(1, 10),
    )
    doc = load_json(str(rpath), "report")
    if field == "density_closeness" and isinstance(tampered, dict):
        tampered = {**doc["result"][field], **tampered}
    doc["result"][field] = tampered
    rpath.write_text(to_json(doc))
    code, out, err = run(
        capsys, "verify", "--kernel", str(tmp_path / "kernel.json"),
        "--constraint", str(tmp_path / "system.json"), "--report", str(rpath),
    )
    assert (code, out.splitlines()[1:], err) == (2, [f"mismatch: {shown}"], "")


def test_verify_has_no_epsilon_option(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path)
    rpath = report_file(tmp_path, symmetric_values())
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath,
        "--epsilon", "1/20",
    )
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --epsilon 1/20" in err


@pytest.mark.parametrize("listed", [["5/4"], ["1/2", "1/4"], ["1/4", "1/4"], []])
def test_verify_reads_only_the_points_correct_writes(tmp_path, capsys, listed):
    kpath, cpath = equality_files(tmp_path)
    rpath = tmp_path / "report.json"
    rpath.write_text(to_json({"result": {
        "part": 1, "points": listed, "epsilon": "0",
        "values": {f"{a},{b}": "1/2" for a in listed for b in listed},
    }}))
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", str(rpath)
    )
    assert (code, out) == (1, "")
    assert err == "error: report.points must be nonempty, sorted, distinct and in [0, 1)\n"


# --- verify: refusals before parsing ---


def test_verify_refuses_a_large_sweep_before_parsing_the_report(tmp_path, capsys, monkeypatch):
    kpath = kernel_file(tmp_path, constant_kernel(F(1, 2)))
    cpath = constraint_file(tmp_path, metric_system())
    points = [f"{i}/1500" for i in range(1500)]
    rpath = tmp_path / "report.json"
    rpath.write_text(to_json({"result": {
        "part": 2, "points": points, "epsilon": "1/50",
        "values": {f"{a},{a}": "0" for a in points},
    }}))
    # verify's point/key-token and value parsers
    for parser in ("as_fraction", "value_from_text"):
        monkeypatch.setattr(cli, parser, lambda *args: pytest.fail("parsed before refusing"))
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", str(rpath)
    )
    assert (code, out) == (1, "")
    assert f"refused: estimated 1500^3 assignments, more than {MAX_SWEEP_ASSIGNMENTS}" in err


def test_verify_refuses_a_large_table_before_parsing_a_value(tmp_path, capsys, monkeypatch):
    kpath, cpath = equality_files(tmp_path)
    values = symmetric_values()
    values["1/8,1/8"] = "1/2"
    rpath = report_file(tmp_path, values)
    monkeypatch.setattr(cli, "MAX_REPAIR_TABLE", len(values) - 1)
    monkeypatch.setattr(cli, "value_from_text", lambda *args: pytest.fail("parsed a value"))
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert (code, out) == (1, "")
    assert f"refused: 5 report values, more than {len(values) - 1}" in err


@pytest.mark.parametrize(
    "space", [BoundedInterval(F(1)), CompactifiedRay()], ids=lambda s: type(s).__name__
)
def test_verify_refuses_a_negative_epsilon_before_sweeping(tmp_path, capsys, monkeypatch, space):
    kernel = StepKernel.from_flat(arity=2, resolution=1, space=space, flat_values=[F(1, 2)])
    _, cpath = equality_files(tmp_path)
    kpath = kernel_file(tmp_path, kernel)
    rpath = report_file(tmp_path, symmetric_values(), epsilon="-1/50")
    monkeypatch.setattr(corrector, "violations", lambda *args: pytest.fail("swept"))
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert (code, out) == (1, "")
    assert err == "error: epsilon must be nonnegative\n"


def test_verify_names_an_arity_mismatch_before_reading_the_report(tmp_path, capsys):
    # a bare result document carries no inputs; the sweep would miss its tuples
    kpath = kernel_file(tmp_path, constant_kernel(F(1, 2)))
    cpath = tmp_path / "arity-3.json"
    cpath.write_text(json.dumps({
        "mode": "distinct", "arity": 3, "variables": 3,
        "atoms": [{"kind": "finite", "slot": [1, 2, 3], "allowed": ["1/2"]}],
    }))
    rpath = report_file(tmp_path, symmetric_values())
    code, out, err = run(
        capsys, "verify", "--kernel", kpath, "--constraint", str(cpath), "--report", rpath
    )
    assert (code, out) == (1, "")
    assert err == "error: system arity 3 does not match kernel arity 2\n"


def float_field(result, field):
    """The result with ``field`` rewritten as binary floats."""
    if field == "values":
        result["values"] = {k: float(F(v)) for k, v in result["values"].items()}
    elif field == "points":
        result["points"] = [float(F(p)) for p in result["points"]]
    else:
        result["epsilon"] = float(F(result["epsilon"]))


@pytest.mark.parametrize("field", ["epsilon", "points", "values"])
def test_verify_refuses_a_float_in_the_report(tmp_path, capsys, field):
    # 0.02 reads as a binary fraction a little above 1/50, and a float
    # point names no tuple of the table
    kpath = kernel_file(tmp_path, almost_metric_kernel())
    cpath = tmp_path / "metric.json"
    save_constraint(metric_system(), CompactifiedRay(), str(cpath))
    rpath = tmp_path / "report.json"
    common = ["--kernel", kpath, "--constraint", str(cpath)]
    code, _, _ = run(
        capsys, "correct", *common, "--points", "1/10,3/5,9/10", "--epsilon", "1/50",
        "--seed", "0", "--out", str(rpath),
    )
    assert code == 0
    assert run(capsys, "verify", *common, "--report", str(rpath))[0] == 0
    doc = load_json(str(rpath), "report")
    float_field(doc["result"], field)
    rpath.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", *common, "--report", str(rpath))
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: report.{field}")
    assert "expected an exact rational string or integer, not the float" in err


def test_verify_reads_integers_in_the_report(tmp_path, capsys):
    kpath, cpath = equality_files(tmp_path)
    rpath = tmp_path / "report.json"
    rpath.write_text(json.dumps({"result": {
        "part": 1, "points": [0, "1/2"], "epsilon": 0,
        "values": {"0,0": 1, "0,1/2": 0, "1/2,0": 0, "1/2,1/2": 1},
    }}))
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", str(rpath)
    )
    assert (code, out) == (0, "checked 2 assignments: all atoms hold\n")


def test_verify_reads_a_table_at_the_cap(tmp_path, capsys, monkeypatch):
    kpath, cpath = equality_files(tmp_path)
    rpath = report_file(tmp_path, symmetric_values())
    monkeypatch.setattr(cli, "MAX_REPAIR_TABLE", len(symmetric_values()))
    code, out, _ = run(
        capsys, "verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath
    )
    assert code == 0
    assert "all atoms hold" in out


# --- verify against the Fraction-keyed reference ---


def both_verifies(monkeypatch, argv):
    """``(code, stdout, stderr)`` of ``main(argv)`` under ``cmd_verify``, then
    under ``reference_verify``."""
    outcomes = []
    for command in (cli.cmd_verify, reference_verify):
        monkeypatch.setattr(cli, "cmd_verify", command)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


def written_report(path, points, values, part=1, epsilon="0"):
    # the table's (key, value) pairs in order, so a key may repeat
    pairs = values.items() if isinstance(values, dict) else values
    table = ", ".join(f"{json.dumps(key)}: {json.dumps(text)}" for key, text in pairs)
    head = json.dumps({"part": part, "points": points, "epsilon": epsilon})[:-1]
    path.write_text('{"result": ' + head + ', "values": {' + table + "}}}")
    return str(path)


#: a value, and one 1/10 away from it
HALF, OFF = "1/2", "3/5"

#: Tables that verify sweeps, and tables off the format ``correct``
#: writes.  Verify reads each value at its tuple's ``frac_str`` key, the
#: last one where JSON repeats a key, and refuses unsorted or repeated
#: points, a missing tuple and a table with more keys than tuples, so a
#: key spelled otherwise exits 1; a point spelled otherwise is read at its
#: value.  A list of pairs writes its keys in order, repeats too.
VERIFY_CASES = {
    "non-canonical tokens": (
        ["1/4", "1/2"], 1,
        {"0.25,2/4": HALF, "2/4,1/4": HALF, "1/4,0.250": HALF, "0.5,0.5": HALF},
    ),
    "a non-canonical token flags a violation": (
        ["0.25", "2/4"], 1,
        {"1/4,1/2": HALF, "1/2,1/4": OFF, "1/4,1/4": HALF, "1/2,1/2": HALF},
    ),
    "the last key of a tuple wins": (
        ["1/4", "1/2"], 1,
        [("1/4,1/2", OFF), ("1/2,1/4", HALF), ("1/4,1/4", HALF), ("1/2,1/2", HALF),
         ("1/4,1/2", HALF)],
    ),
    "the last key of a tuple wins, the other way": (
        ["1/4", "1/2"], 1,
        [("1/4,1/2", HALF), ("1/2,1/4", HALF), ("1/4,1/4", HALF), ("1/2,1/2", HALF),
         ("1/4,1/2", OFF)],
    ),
    "a second spelling of a tuple": (
        ["1/4", "1/2"], 1,
        {"1/4,1/2": HALF, "1/2,1/4": HALF, "0.25,0.5": OFF, "1/4,1/4": HALF, "1/2,1/2": HALF},
    ),
    "a canonical table in part 2": (
        ["1/4", "1/2"], 2, {"1/4,1/4": HALF, "1/4,1/2": HALF, "1/2,1/2": HALF},
    ),
    "three points in part 2": (
        ["1/4", "1/2", "3/4"], 2,
        {"1/4,1/4": HALF, "1/4,1/2": OFF, "1/4,3/4": HALF,
         "1/2,1/2": HALF, "1/2,3/4": HALF, "3/4,3/4": "0"},
    ),
    "keys naming other points": (
        ["1/4", "1/2"], 1,
        {"1/4,1/2": HALF, "1/2,1/4": HALF, "1/8,1/4": OFF, "7/8,7/8": "0", "1/4,1/2,1/2": "1"},
    ),
    "a bad value at a key naming another point": (
        ["1/4", "1/2"], 1, {"1/4,1/2": HALF, "1/2,1/4": HALF, "1/8,1/4": "2"},
    ),
    "a bad token": (["1/4", "1/2"], 1, {"1/4,1/2": HALF, "1/2,x": HALF}),
    "a missing tuple": (["1/4", "1/2"], 1, {"1/4,1/2": HALF, "1/4,1/4": HALF}),
    "a missing tuple in part 2": (["1/2", "1/4"], 2, {"1/2,1/4": HALF}),
    "unsorted points in part 2": (
        ["3/4", "1/4", "1/2"], 2,
        {"1/4,1/2": HALF, "1/4,3/4": OFF, "1/2,3/4": HALF},
    ),
    "repeated points": (
        ["1/2", "1/4", "1/2"], 1,
        {"1/2,1/4": HALF, "1/4,1/2": OFF, "1/2,1/2": HALF, "1/4,1/4": HALF},
    ),
    "repeated points in part 2": (
        ["1/2", "1/4", "0.5", "1/4"], 2, {"1/4,1/2": HALF, "1/2,1/2": HALF, "1/4,1/4": OFF},
    ),
}


@pytest.mark.parametrize("mode", ["distinct", "multiset"])
@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_agrees_with_the_fraction_keyed_reference(tmp_path, monkeypatch, case, mode):
    points, part, values = VERIFY_CASES[case]
    kpath = kernel_file(tmp_path, constant_kernel(F(1, 2)))
    system = ConstraintSystem(2, 2, mode, (EqualityAtom((1, 2), (2, 1)),))
    cpath = constraint_file(tmp_path, system)
    # the case's part, and the part of the constraint's mode
    for written in {part, 2 if mode == "multiset" else 1}:
        rpath = written_report(tmp_path / "report.json", points, values, written)
        argv = ["verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath]
        got, want = both_verifies(monkeypatch, argv)
        assert got == want


@st.composite
def metric_reports(draw):
    """Reports as ``correct`` writes them for the multiset metric system:
    sorted distinct points, canonical keys, every sorted tuple, and a part
    that may be the wrong one."""
    pool = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    points = sorted(draw(st.sets(st.sampled_from(pool), min_size=1, max_size=4)))
    part = draw(st.sampled_from((1, 2)))
    tuples = [(a, b) for a in points for b in points if a <= b]
    texts = st.sampled_from(("0", "1/4", "1/2", "1", "2", "inf"))
    values = {",".join(map(frac_str, t)): draw(texts) for t in tuples}
    epsilon = draw(st.sampled_from(("0", "1/50", "1/10")))
    return [frac_str(q) for q in points], values, part, epsilon


@settings(max_examples=60, deadline=None)
@given(metric_reports())
def test_verify_agrees_with_the_reference_on_metric_reports(report):
    points, values, part, epsilon = report
    ray = CompactifiedRay()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        kpath, cpath = os.path.join(tmp, "k.json"), os.path.join(tmp, "c.json")
        save_kernel(StepKernel.from_flat(2, 1, ray, [F(1)]), kpath)
        save_constraint(metric_system(), ray, cpath)
        # the drawn part, and part 2 of the multiset metric system
        for written in {part, 2}:
            rpath = written_report(Path(tmp) / "r.json", points, values, written, epsilon)
            argv = ["verify", "--kernel", kpath, "--constraint", cpath, "--report", rpath]
            got, want = both_verifies(monkeypatch, argv)
            assert got == want


# --- usage and file errors ---


def test_missing_subcommand_exits_1(capsys):
    assert run(capsys, )[0] == 1


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_missing_required_option_exits_1(capsys):
    code, _, err = run(capsys, "eval", "--point", "1/2")
    assert code == 1
    assert "required" in err


def test_malformed_point_list_exits_1(tmp_path, capsys):
    path = kernel_file(tmp_path, step_1d())
    code, _, err = run(capsys, "eval", "--kernel", path, "--point", "1/2,zebra")
    assert code == 1
    assert "rational" in err


def test_corrupted_kernel_file_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"arity": oops}\n')
    code, _, err = run(capsys, "eval", "--kernel", str(path), "--point", "1/2")
    assert code == 1
    assert "not valid JSON" in err


# --- hostile files ---


def hostile_docs():
    """A kernel, a finite-metric kernel and a constraint document that load,
    with every field the malformed-field cases below replace."""
    kernel = {
        "arity": 2,
        "resolution": 1,
        "value_space": {"variant": "bounded_interval", "diameter": "1"},
        "base": ["0"],
        "exceptions": [
            {"atoms": [{"coord": 1, "const": "1/2"}], "value": "1"},
            {"atoms": [{"coord": 1, "equals": 2}], "value": "0"},
        ],
    }
    metric = {
        "arity": 1,
        "resolution": 1,
        "value_space": {
            "variant": "finite_metric",
            "labels": ["a", "b"],
            "dist_matrix": [["0", "1"], ["1", "0"]],
        },
        "base": ["a"],
    }
    constraint = {
        "mode": "distinct",
        "arity": 2,
        "variables": 3,
        "atoms": [
            {"kind": "equality", "left": [1, 2], "right": [2, 1]},
            {"kind": "zero_product", "slots": [[1, 2], [2, 3]]},
            {"kind": "linear_ineq", "coeffs": ["1", "-1"], "slots": [[1, 3], [1, 2]], "bound": "1"},
            {"kind": "finite", "slot": [1, 2], "allowed": ["0", "1"]},
            {"kind": "table", "columns": [[1, 2]], "rows": [["0"], ["1"]]},
        ],
    }
    return {"kernel": kernel, "metric": metric, "constraint": constraint}


def run_on_docs(capsys, tmp_path, docs, kernel="kernel"):
    paths = {}
    for name in (kernel, "constraint"):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(docs[name]))
    if kernel == "metric":
        return run(capsys, "eval", "--kernel", str(paths["metric"]), "--point", "1/4")
    return run(
        capsys, "audit", "--kernel", str(paths["kernel"]),
        "--constraint", str(paths["constraint"]), "--trials", "5", "--seed", "0",
    )


def assert_one_error_line(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("kernel", ["kernel", "metric"])
def test_the_hostile_documents_load_unchanged(tmp_path, capsys, kernel):
    code, _, err = run_on_docs(capsys, tmp_path, hostile_docs(), kernel)
    assert code == 0, err


MALFORMED_FIELDS = [
    ("kernel", ("arity",), True, "kernel: arity and resolution must be integers"),
    ("kernel", ("base",), 5, "kernel.base: expected a list"),
    ("kernel", ("exceptions",), 5, "kernel.exceptions: expected a list"),
    ("kernel", ("exceptions", 0), 5, "kernel.exceptions[0]: expected an object"),
    ("kernel", ("exceptions", 0), "atoms", "kernel.exceptions[0]: expected an object"),
    ("kernel", ("exceptions", 0, "atoms"), 5, "kernel.exceptions[0].atoms: expected a list"),
    ("kernel", ("exceptions", 0, "atoms", 0), 5, "kernel.exceptions[0].atoms[0]: expected an object"),
    ("kernel", ("exceptions", 0, "atoms", 0, "coord"), "1", "kernel.exceptions[0].atoms[0].coord: expected an integer"),
    ("kernel", ("exceptions", 0, "atoms", 0, "coord"), True, "kernel.exceptions[0].atoms[0].coord: expected an integer"),
    ("kernel", ("exceptions", 1, "atoms", 0, "equals"), [2], "kernel.exceptions[1].atoms[0].equals: expected an integer"),
    ("kernel", ("value_space",), 5, "value_space: expected an object"),
    ("metric", ("value_space", "labels"), 5, "value_space.labels: expected a list"),
    ("metric", ("value_space", "dist_matrix"), 5, "value_space.dist_matrix: expected a list"),
    ("metric", ("value_space", "dist_matrix", 1), 5, "value_space.dist_matrix[1]: expected a list"),
    ("constraint", ("atoms", 2), 5, "constraint.atoms[2]: expected an object"),
    ("constraint", ("arity",), "2", "constraint.arity: expected an integer"),
    ("constraint", ("arity",), True, "constraint.arity: expected an integer"),
    ("constraint", ("variables",), 3.0, "constraint.variables: expected an integer"),
    ("constraint", ("atoms", 0, "left"), [1, True], "constraint.atoms[0]: a slot must be a list"),
    ("constraint", ("atoms", 1, "slots"), 5, "constraint.atoms[1].slots: expected a list"),
    ("constraint", ("atoms", 2, "coeffs"), 5, "constraint.atoms[2].coeffs: expected a list"),
    ("constraint", ("atoms", 2, "slots"), 5, "constraint.atoms[2].slots: expected a list"),
    ("constraint", ("atoms", 3, "allowed"), 5, "constraint.atoms[3].allowed: expected a list"),
    ("constraint", ("atoms", 4, "columns"), 5, "constraint.atoms[4].columns: expected a list"),
    ("constraint", ("atoms", 4, "rows"), 5, "constraint.atoms[4].rows: expected a list"),
    ("constraint", ("atoms", 4, "rows", 0), 5, "constraint.atoms[4].rows[0]: expected a list"),
    # with arity and variables left out, they are inferred from the slots
    ("inferred", ("atoms", 0, "left"), 5, "constraint.atoms[0].left: a slot must be a list"),
    ("inferred", ("atoms", 1, "slots"), 5, "constraint.atoms[1].slots: expected a list"),
    ("inferred", ("atoms", 1, "slots", 0), 5, "constraint.atoms[1].slots: a slot must be a list"),
    ("inferred", ("atoms", 4, "columns", 0), [], "constraint.atoms[4]: a slot needs at least one variable"),
    # a flag is a JSON boolean; any non-empty string was once read as true
    ("kernel", ("symmetric_base",), "false", "kernel.symmetric_base: expected true or false"),
    ("kernel", ("symmetric_base",), "true", "kernel.symmetric_base: expected true or false"),
    ("kernel", ("symmetric_base",), 0, "kernel.symmetric_base: expected true or false"),
    # a JSON float is a rounded binary number, never an exact one
    ("kernel", ("exceptions", 0, "atoms", 0, "const"), 0.1, "kernel.exceptions[0].atoms[0].const: expected an exact rational string or integer, not the float 0.1"),
    ("kernel", ("base", 0), 0.5, "kernel.base: expected an exact rational string or integer, not the float 0.5"),
    ("kernel", ("exceptions", 1, "value"), 1.0, "kernel.exceptions[1].value: expected an exact rational string or integer, not the float 1.0"),
    ("kernel", ("value_space", "diameter"), 1.0, "value_space.diameter: expected an exact rational"),
    ("metric", ("value_space", "dist_matrix", 1, 0), 1.0, "value_space.dist_matrix[1]: expected an exact rational"),
    ("constraint", ("atoms", 2, "coeffs", 1), -1.0, "constraint.atoms[2].coeffs[1]: expected an exact rational"),
    ("constraint", ("atoms", 2, "bound"), 0.1, "constraint.atoms[2].bound: expected an exact rational"),
    ("constraint", ("atoms", 3, "allowed", 0), 0.0, "constraint.atoms[3].allowed: expected an exact rational"),
    ("constraint", ("atoms", 4, "rows", 1, 0), 1.0, "constraint.atoms[4].rows[1]: expected an exact rational"),
]


@pytest.mark.parametrize(
    "doc, path, value, message",
    MALFORMED_FIELDS,
    ids=[f"{doc}.{'.'.join(map(str, path))}={value!r}" for doc, path, value, _ in MALFORMED_FIELDS],
)
def test_a_malformed_field_is_named_not_a_traceback(tmp_path, capsys, doc, path, value, message):
    docs = hostile_docs()
    if doc == "inferred":
        doc = "constraint"
        del docs[doc]["arity"], docs[doc]["variables"]
    node = docs[doc]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, out, err = run_on_docs(capsys, tmp_path, docs, "metric" if doc == "metric" else "kernel")
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("flag", [True, False, None])
def test_a_boolean_or_absent_symmetric_base_loads(tmp_path, capsys, flag):
    docs = hostile_docs()
    if flag is not None:
        docs["kernel"]["symmetric_base"] = flag
    code, _, err = run_on_docs(capsys, tmp_path, docs)
    assert code == 0, err


def test_integers_load_wherever_an_exact_number_belongs(tmp_path, capsys):
    docs = hostile_docs()
    kernel, constraint = docs["kernel"], docs["constraint"]
    kernel["value_space"]["diameter"] = 1
    kernel["base"] = [0]
    kernel["exceptions"][0] = {"atoms": [{"coord": 1, "const": 0}], "value": 1}
    constraint["atoms"][2].update(coeffs=[1, -1], bound=1)
    constraint["atoms"][3]["allowed"] = [0, 1]
    constraint["atoms"][4]["rows"] = [[0], [1]]
    docs["metric"]["value_space"]["dist_matrix"] = [[0, 1], [1, 0]]
    for kind in ("kernel", "metric"):
        code, _, err = run_on_docs(capsys, tmp_path, docs, kind)
        assert code == 0, err


HOSTILE_BYTES = {
    "not-utf8": b"\xff\xfe{}",
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", sorted(HOSTILE_BYTES))
@pytest.mark.parametrize("role", ["kernel", "constraint", "report"])
def test_hostile_bytes_exit_1_with_an_error_line(tmp_path, capsys, role, content):
    docs = hostile_docs()
    paths = {}
    for name in ("kernel", "constraint"):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(docs[name]))
    paths["report"] = tmp_path / "report.json"
    written_report(paths["report"], ["1/2"], {"1/2,1/2": "0"})
    paths[role].write_bytes(HOSTILE_BYTES[content])
    code, out, err = run(
        capsys, "verify", "--kernel", str(paths["kernel"]),
        "--constraint", str(paths["constraint"]), "--report", str(paths["report"]),
    )
    assert_one_error_line(code, out, err)
    assert f"{role} file {paths[role]}" in err


@pytest.mark.parametrize("report", [[], {"part": 1, "points": ["1/2"], "epsilon": "0", "values": []}])
def test_a_report_of_the_wrong_shape_exits_1(tmp_path, capsys, report):
    docs = hostile_docs()
    for name in ("kernel", "constraint"):
        (tmp_path / f"{name}.json").write_text(json.dumps(docs[name]))
    (tmp_path / "report.json").write_text(json.dumps(report))
    code, out, err = run(
        capsys, "verify", "--kernel", str(tmp_path / "kernel.json"),
        "--constraint", str(tmp_path / "constraint.json"), "--report", str(tmp_path / "report.json"),
    )
    assert_one_error_line(code, out, err)
