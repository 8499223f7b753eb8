"""End-to-end demos: frozen summaries for the packaged scenarios."""

from __future__ import annotations

import importlib.util
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from kernel_repair.constraint import violations
from kernel_repair.demos import (
    DEMOS,
    almost_metric_kernel,
    audit_demo,
    count_triangles,
    loopy_bipartite_kernel,
    metric_demo,
    remark_demo,
    run_demo,
    triangle_demo,
)
from kernel_repair.errors import ContractError

F = Fraction


def test_demo_registry():
    assert set(DEMOS) == {"triangle-removal", "metric-repair", "remark", "audit"}
    with pytest.raises(ContractError):
        run_demo("nonesuch")


def test_count_triangles_on_a_hand_table():
    pts = (F(1, 4), F(1, 2))
    table = {
        (F(1, 4), F(1, 4)): F(1),
        (F(1, 4), F(1, 2)): F(1),
        (F(1, 2), F(1, 4)): F(1),
        (F(1, 2), F(1, 2)): F(0),
    }
    # triples whose three ordered pair values are nonzero: all entries of
    # {1/4,1/2}^3 except those needing (1/2,1/2); that leaves (x,x,x),
    # (x,x,y), (x,y,x), (y,x,x) with x = 1/4
    assert count_triangles(table.__getitem__, pts) == 4


def test_loopy_kernel_defect_census():
    kernel = loopy_bipartite_kernel()
    points = (F(1, 10), F(1, 5), F(3, 10), F(3, 5), F(7, 10), F(4, 5))
    # every triple through a repeated point closes over the diagonal loop:
    # 6 fully repeated + 54 with exactly two equal entries and a cross edge
    assert count_triangles(kernel.value_at, points) == 60


def test_triangle_demo_summary():
    report = triangle_demo(seed="0", audit_samples=800)
    s = report.summary
    assert s["status"] == "ok"
    assert s["f_triangles"] == 60
    assert s["g_triangles"] == 0
    assert s["audit_violations"] == 0
    assert s["all_ones_status"] == "failed"
    low, high = s["all_ones_audit_interval"]
    assert low <= 1 <= high and high == 1.0
    # the repaired table has no triangle even through repeated points
    g = report.outcome.corrected
    for x, y, z in itertools.product(report.objects["points"], repeat=3):
        assert g.value_at((x, y)) == 0 or g.value_at((y, z)) == 0 or g.value_at((x, z)) == 0


def test_metric_demo_summary():
    report = metric_demo(seed="0")
    s = report.summary
    assert s["status"] == "ok"
    assert s["f_violations"] == 24
    assert s["g_violations"] == 0
    assert s["zero_diagonal_violations"] == 0
    assert s["triples_checked"] == 27


def test_metric_demo_f_violation_recount():
    """Brute-force recount of the defective kernel's violations."""
    kernel = almost_metric_kernel()
    from kernel_repair.constraint import metric_system

    system = metric_system()
    points = (F(1, 10), F(3, 5), F(9, 10))
    found = violations(system, kernel.value_at, kernel.space, points, F(1, 50))
    assert len(found) == 24
    # the defect direction is exactly (1/10, 3/5)
    assert kernel.value_at((F(1, 10), F(3, 5))) == 1
    assert kernel.value_at((F(3, 5), F(1, 10))) == F(3, 10)


def test_metric_demo_exactness_of_repair():
    report = metric_demo(seed="1")
    assert report.outcome.ok
    g = report.outcome.corrected
    pts = report.objects["points"]
    for x, y, z in itertools.product(pts, repeat=3):
        assert g.value_at((x, z)) <= g.value_at((x, y)) + g.value_at((y, z))
        assert g.value_at((x, y)) == g.value_at((y, x))


def test_remark_demo_summary():
    report = remark_demo(seed="0", audit_samples=400)
    s = report.summary
    assert s["symmetrized_status"] == "infeasible"
    assert s["symmetrized_proven_infeasible"] is True
    assert s["antisymmetry_status"] == "ok"
    assert s["diagonal_status"] == "infeasible"
    assert s["diagonal_proven_infeasible"] is True
    assert s["diagonal_audit_violations"] == 0


def test_remark_feasible_variant_produces_oriented_values():
    report = remark_demo(seed="0", audit_samples=400)
    plain = report.objects["antisymmetry"]
    assert plain.ok
    a, b = report.objects["points"]
    one_way = plain.corrected.value_at((a, b)) + plain.corrected.value_at((b, a))
    assert one_way == 1  # exactly one direction carries the edge


def test_audit_demo_summary():
    report = audit_demo(seed="0", audit_samples=600)
    s = report.summary
    assert s["bipartite"]["violations"] == 0
    assert s["all_zero"]["violations"] == 0
    assert s["all_ones"]["violations"] == 600
    assert s["all_ones"]["interval"][1] == 1.0


def test_demos_are_pure_functions_of_the_seed():
    a = triangle_demo(seed="x", audit_samples=200).summary
    b = triangle_demo(seed="x", audit_samples=200).summary
    assert a == b


def test_run_demos_script_writes_the_demo_doc(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_demos.py"
    spec = importlib.util.spec_from_file_location("run_demos", script)
    run_demos = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_demos)
    argv = ["--seed", "0", "--only", "remark", "--out-dir", str(tmp_path), "--strip-timing"]
    assert run_demos.main(argv) == 0
    doc = json.loads((tmp_path / "remark.json").read_text())
    assert set(doc) == {"summary", "reports"}
    assert set(doc["reports"]) == {"main", "symmetrized", "antisymmetry", "diagonal"}
    assert doc["summary"] == remark_demo(seed="0").summary
    assert "timing" not in doc["reports"]["main"]
