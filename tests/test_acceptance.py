"""Acceptance gate: the ten shipping criteria, one verdict line each.

Each test covers one criterion end to end, does its own independent
verification (never trusting a report field it can recompute), and prints
a single PASS/FAIL line.  Run with -s to see the lines as they happen.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from helpers import random_exceptions, random_kernel, separated_pools, suite_problem
from kernel_repair.cli import main as cli_main
from kernel_repair.constraint import metric_system, violations
from kernel_repair.corrector import RepairConfig, repair
from kernel_repair.demos import metric_demo, remark_demo, triangle_demo
from kernel_repair.density import density_mass, is_density_tuple
from kernel_repair.errors import ExtractionFailed
from kernel_repair.fileio import (
    load_json,
    save_constraint,
    save_kernel,
    strip_timing,
    to_json,
)
from kernel_repair.kernel import StepKernel
from kernel_repair.ramsey import all_selections, extract_core, is_monochromatic
from kernel_repair.rational import frac_str
from kernel_repair.values import INFINITY, BoundedInterval, epsilon_partition

F = Fraction

_MENU = [F(0), F(1, 5), F(1, 2), F(4, 5), F(1)]


def _verdict(num: int, title: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {mark}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _density_suite():
    """50 clean step kernels with 20 aligned interior queries each.

    Query coordinates sit at elevenths inside their base cells, so they
    never touch a dyadic cut and never coincide with the seventh-valued
    exception constants added later; the level 2*m0 box around each point
    then lies inside a single base cell.  The last entry is the
    one-dimensional cut-point query whose box straddles two cells.
    """
    suite = []
    for i in range(50):
        rng = random.Random(f"accept1:{i}")
        k = rng.randrange(1, 4)
        m0 = rng.randrange(1, 5)
        kernel = random_kernel(rng, k, m0, _MENU)
        partition = epsilon_partition(kernel.space, F(3, 10))
        queries = []
        for _ in range(20):
            point = tuple(
                F(rng.randrange(m0) * 11 + rng.randrange(1, 11), 11 * m0)
                for _ in range(k)
            )
            cell = partition.cell_of(kernel.value_at(point))
            queries.append((point, 2 * m0, cell, F(1)))
        suite.append((kernel, partition, queries))
    boundary = StepKernel.from_flat(
        arity=1,
        resolution=2,
        space=BoundedInterval(F(1)),
        flat_values=[F(0), F(1)],
    )
    partition = epsilon_partition(boundary.space, F(3, 10))
    cell = partition.cell_of(F(1))
    suite.append((boundary, partition, [((F(1, 2),), 3, cell, F(1, 2))]))
    return suite


def test_criterion_01_density_exactness():
    start = time.monotonic()
    checked = 0
    exact = True
    for kernel, partition, queries in _density_suite():
        for point, m, cell, expected in queries:
            exact &= density_mass(kernel, partition, point, m, cell) == expected
            checked += 1
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "aligned density masses are exactly 1, cut point exactly 1/2",
        exact and elapsed < 5.0,
        f"{checked} rational equalities in {elapsed:.1f}s",
    )


def test_criterion_02_null_invariance():
    unchanged = True
    checked = 0
    for i, (kernel, partition, queries) in enumerate(_density_suite()):
        rng = random.Random(f"accept2:{i}")
        noisy = kernel.with_exceptions(
            random_exceptions(rng, kernel.arity, _MENU, rng.randrange(6))
        )
        for point, m, cell, _ in queries:
            before = density_mass(kernel, partition, point, m, cell)
            after = density_mass(noisy, partition, point, m, cell)
            unchanged &= before == after
            checked += 1
    _verdict(
        2,
        "up to 5 exception pieces change no density mass",
        unchanged,
        f"{checked} queries unchanged",
    )


def test_criterion_03_ramsey_ground_truth():
    start = time.monotonic()
    parts = [list(range(6))]
    index = {sel: i for i, sel in enumerate(all_selections(parts, (2,)))}
    every = True
    for mask in range(1 << 15):
        def color(sel, mask=mask):
            return (mask >> index[sel]) & 1

        try:
            cores = extract_core(parts, (2,), color, 3)
        except ExtractionFailed:
            every = False
            break
        every &= is_monochromatic([sorted(c) for c in cores], (2,), color)
        if not every:
            break

    pentagon = [list(range(5))]
    cycle = {tuple(sorted((i, (i + 1) % 5))) for i in range(5)}

    def pentagon_color(sel):
        return 0 if sel[0] in cycle else 1

    proven_absent = False
    try:
        extract_core(pentagon, (2,), pentagon_color, 3)
    except ExtractionFailed as exc:
        proven_absent = exc.proven_absent
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "all 2^15 pair colorings of 6 elements yield a verified core; pentagon proven absent",
        every and proven_absent and elapsed < 60.0,
        f"32768 extractions in {elapsed:.1f}s",
    )


def test_criterion_04_extraction_checker_independence():
    found = 0
    all_verified = True
    all_rejected = True
    for i in range(1000):
        rng = random.Random(f"accept4:{i}")
        nparts = rng.choice((1, 1, 2))
        size = rng.randrange(4, 13)
        parts = [list(range(size)) for _ in range(nparts)]
        profile = tuple(rng.randrange(1, 3) for _ in range(nparts))
        colors = rng.randrange(2, 4)
        # target above the largest subset size keeps at least two
        # selections inside every core, so one recoloring must show up
        target = rng.randrange(max(profile) + 1, min(size, 4) + 1)
        table = {
            sel: rng.randrange(colors) for sel in all_selections(parts, profile)
        }

        def norm(sel):
            return tuple(tuple(sorted(sub)) for sub in sel)

        def color(sel):
            return table[norm(sel)]

        try:
            cores = extract_core(parts, profile, color, target)
        except ExtractionFailed:
            continue  # an honest miss, nothing to verify
        found += 1
        cores = [sorted(c) for c in cores]
        all_verified &= is_monochromatic(cores, profile, color)

        mutated = dict(table)
        first = norm(next(iter(all_selections(cores, profile))))
        mutated[first] = (mutated[first] + 1) % colors
        all_rejected &= not is_monochromatic(
            cores, profile, lambda sel: mutated[norm(sel)]
        )
    _verdict(
        4,
        "every extraction success verifies; every injected mutation is rejected",
        all_verified and all_rejected and found >= 500,
        f"{found} successes of 1000 colorings",
    )


def test_criterion_05_corrector_distinct_suite():
    start = time.monotonic()
    repaired = 0
    atoms_hold = True
    density_close = True
    tuples_checked = 0
    for i in range(100):
        kernel, system, points, eps = suite_problem(i, "distinct")
        outcome = repair(
            kernel, system, points, RepairConfig(epsilon=eps, seed=f"accept5:{i}")
        )
        if outcome.status != "ok":
            continue
        repaired += 1
        g = outcome.corrected
        atoms_hold &= not violations(system, g.value_at, kernel.space, points, eps)
        partition = epsilon_partition(kernel.space, eps)
        for t in itertools.product(points, repeat=kernel.arity):
            tuples_checked += 1
            if is_density_tuple(kernel, partition, t):
                drift = kernel.space.dist(g.value_at(t), kernel.value_at(t))
                density_close &= drift <= eps
    elapsed = time.monotonic() - start
    _verdict(
        5,
        "100 distinct-mode repairs: atoms hold at epsilon, density tuples stay close",
        repaired == 100 and atoms_hold and density_close and elapsed < 60.0,
        f"{repaired}/100 repaired, {tuples_checked} tuples swept in {elapsed:.1f}s",
    )


def test_criterion_06_corrector_multiset_suite():
    repaired = 0
    symmetric = True
    atoms_hold = True
    swaps_small = True
    for i in range(100):
        kernel, system, points, eps = suite_problem(i, "multiset")
        outcome = repair(
            kernel, system, points, RepairConfig(epsilon=eps, seed=f"accept6:{i}")
        )
        if outcome.status != "ok":
            continue
        repaired += 1
        g = outcome.corrected
        space = kernel.space
        for t in itertools.product(points, repeat=kernel.arity):
            for perm in itertools.permutations(t):
                symmetric &= g.value_at(perm) == g.value_at(t)
        atoms_hold &= not violations(system, g.value_at, space, points, eps)

        # swapping which core elements represent a point moves nothing by
        # eps; the cores are the paper's, the sorted prefixes of guarded pools
        pts = sorted(points)
        pools = separated_pools(random.Random(f"accept6:{i}"), kernel, system, pts)
        core_size = max(system.variables, kernel.arity)
        cores = {z: sorted(p[:core_size]) for z, p in zip(pts, pools)}
        for key in itertools.combinations_with_replacement(points, kernel.arity):
            alt = sorted(
                itertools.chain.from_iterable(
                    cores[z][-key.count(z):] if key.count(z) else []
                    for z in points
                )
            )
            swaps_small &= space.dist(kernel.value_at(tuple(alt)), g.value_at(key)) < eps
    _verdict(
        6,
        "100 multiset-mode repairs: exact symmetry, atoms hold, representative swaps stay under epsilon",
        repaired == 100 and symmetric and atoms_hold and swaps_small,
        f"{repaired}/100 repaired",
    )


def test_criterion_07_triangle_removal_reproduction():
    report = triangle_demo(seed="0")
    s = report.summary
    points = report.objects["points"]
    g = report.outcome.corrected

    triangle_free = True
    for x, y, z in itertools.product(points, repeat=3):
        triangle_free &= (
            g.value_at((x, y)) == 0
            or g.value_at((y, z)) == 0
            or g.value_at((x, z)) == 0
        )
    low, high = s["all_ones_audit_interval"]
    ok = (
        s["status"] == "ok"
        and len(points) == 6
        and triangle_free
        and s["audit_samples"] == 10_000
        and s["audit_violations"] == 0
        and s["all_ones_status"] == "failed"
        and low <= 1 <= high
    )
    _verdict(
        7,
        "bipartite graphon repaired triangle-free over 6^3 triples; all-ones fails honestly",
        ok,
        f"audit 0/{s['audit_samples']}, all-ones interval [{low:.3f}, {high:.3f}]",
    )


def test_criterion_08_metric_repair_reproduction():
    report = metric_demo(seed="0")
    s = report.summary
    points = report.objects["points"]
    space = report.objects["kernel"].space
    g = report.outcome.corrected

    def d(x, y):
        return F(0) if x == y else g.value_at((x, y))

    finite = all(
        d(x, y) is not INFINITY for x, y in itertools.product(points, repeat=2)
    )
    symmetric = all(
        d(x, y) == d(y, x) for x, y in itertools.product(points, repeat=2)
    )
    triangle = 0
    for x, y, z in itertools.product(points, repeat=3):
        triangle += d(x, z) <= d(x, y) + d(y, z)
    no_atom_broken = not violations(
        metric_system(), lambda t: d(t[0], t[1]), space, points, F(0)
    )
    ok = (
        s["status"] == "ok"
        and s["triples_checked"] == 27
        and s["g_violations"] == 0
        and s["zero_diagonal_violations"] == 0
        and finite
        and symmetric
        and triangle == 27
        and no_atom_broken
    )
    _verdict(
        8,
        "block metric repaired: 27 exact triangle inequalities with a zeroed diagonal",
        ok,
        f"{triangle}/27 ordered triples hold exactly",
    )


def test_criterion_09_remark_reproduction():
    report = remark_demo(seed="0")
    s = report.summary
    sym_probe = report.objects["symmetrized"].report["probe"]
    diag_probe = report.objects["diagonal"].report["probe"]
    ok = (
        s["symmetrized_status"] == "infeasible"
        and sym_probe == {"ran": True, "proven_infeasible": True}
        and s["diagonal_status"] == "infeasible"
        and diag_probe == {"ran": True, "proven_infeasible": True}
        and s["antisymmetry_status"] == "ok"
    )
    _verdict(
        9,
        "both infeasible variants proven infeasible; distinct-mode variant repairs",
        ok,
        f"{s['symmetrized_status']}/{s['antisymmetry_status']}/{s['diagonal_status']}",
    )


def test_criterion_10_report_determinism(tmp_path, capsys):
    kernel, system, points, eps = suite_problem(1, "distinct")
    kpath = tmp_path / "kernel.json"
    cpath = tmp_path / "system.json"
    save_kernel(kernel, str(kpath))
    save_constraint(system, kernel.space, str(cpath))

    def run_correct(out_name):
        code = cli_main([
            "correct",
            "--kernel", str(kpath),
            "--constraint", str(cpath),
            "--points", ",".join(frac_str(x) for x in points),
            "--epsilon", frac_str(eps),
            "--seed", "accept10",
            "--out", str(tmp_path / out_name),
        ])
        capsys.readouterr()
        assert code == 0
        return to_json(strip_timing(load_json(str(tmp_path / out_name), "report")))

    def run_demo(out_name):
        code = cli_main([
            "demo", "remark", "--seed", "accept10", "--out", str(tmp_path / out_name)
        ])
        capsys.readouterr()
        assert code == 0
        return to_json(strip_timing(load_json(str(tmp_path / out_name), "report")))

    correct_same = run_correct("c1.json") == run_correct("c2.json")
    demo_same = run_demo("d1.json") == run_demo("d2.json")
    _verdict(
        10,
        "repeated correct and demo runs are byte-identical modulo timing",
        correct_same and demo_same,
        "correct + demo compared as canonical bytes",
    )
