"""Command-line front end.

Subcommands: eval, density, correct, ramsey, demo, audit, verify.  Exit
codes: 0 for success or a feasible result, 2 for an honest negative
(failed repair, no core exists, infeasible system, failed
verification), 1 for usage or file-format errors.  Every randomized
subcommand, and correct (which only records it), requires an explicit
--seed; identical invocations produce byte-identical reports except for
timing fields.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import random
import sys
from fractions import Fraction

from .corrector import RepairConfig, _check_arity, audit_ae_hypothesis, judge, repair
from .demos import DEMO_EXPECTATIONS, DEMOS, run_demo
from .density import density_mass
from .errors import ContractError, DomainError, ExtractionFailed, FormatError
from .fileio import (
    MAX_REPAIR_TABLE,
    MAX_SWEEP_ASSIGNMENTS,
    _fraction,
    _not_float,
    constraint_to_doc,
    estimated_assignments,
    estimated_selections,
    estimated_table_tuples,
    kernel_to_doc,
    load_constraint,
    load_json,
    load_kernel,
    to_json,
    write_report,
)
from .ramsey import all_selections, extract_core, validate_request
from .rational import as_fraction, frac_str
from .values import epsilon_partition, value_from_text, value_to_text


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _points_arg(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(as_fraction(tok) for tok in text.split(","))
    except (TypeError, DomainError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated rational list: {text!r}") from exc


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (TypeError, DomainError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _ints_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kernel-repair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a kernel at one point")
    p.add_argument("--kernel", required=True)
    p.add_argument("--point", required=True, type=_points_arg)

    p = sub.add_parser("density", help="exact cell mass around a point")
    p.add_argument("--kernel", required=True)
    p.add_argument("--point", required=True, type=_points_arg)
    p.add_argument("--m", required=True, type=int, help="refinement level")
    p.add_argument("--epsilon", required=True, type=_fraction_arg)
    p.add_argument("--target-value", help="value whose cell is measured (default: the kernel value at the point)")

    p = sub.add_parser("correct", help="repair a kernel over a finite point set")
    p.add_argument("--kernel", required=True)
    p.add_argument("--constraint", required=True)
    p.add_argument("--points", required=True, type=_points_arg)
    p.add_argument("--epsilon", type=_fraction_arg, default=Fraction(0))
    p.add_argument("--seed", required=True)
    p.add_argument("--out", help="write the full report here")

    p = sub.add_parser("ramsey", help="extract a monochromatic core from a seeded random coloring")
    p.add_argument("--parts", type=int, default=1)
    p.add_argument("--size", required=True, type=int, help="elements per part")
    p.add_argument("--profile", required=True, type=_ints_arg, help="subset size per part, comma separated")
    p.add_argument("--target", required=True, type=int, help="core size")
    p.add_argument("--colors", required=True, type=int)
    p.add_argument("--seed", required=True)

    p = sub.add_parser("demo", help="run a packaged scenario")
    p.add_argument("name", choices=sorted(DEMOS))
    p.add_argument("--seed", required=True)
    p.add_argument("--out", help="write the demo report here")

    p = sub.add_parser("audit", help="sample the almost-everywhere hypothesis")
    p.add_argument("--kernel", required=True)
    p.add_argument("--constraint", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", required=True)

    p = sub.add_parser("verify", help="recheck every derived field of a correct report")
    p.add_argument("--kernel", required=True)
    p.add_argument("--constraint", required=True)
    p.add_argument("--report", required=True)

    return parser


def _refuse_above(cap: int, count: int, shown: str, what: str):
    """Refuse, before any work, a request for more than ``cap`` of ``what``."""
    if count > cap:
        raise ContractError(f"refused: {shown} {what}, more than {cap}")


def _refuse_large_system_sweep(system, n: int):
    """Refuse, before any work, a sweep above ``MAX_SWEEP_ASSIGNMENTS``."""
    v = system.variables
    shown = f"{n}^{v}" if system.mode == "multiset" else f"{n}!/({n}-{v})!"
    count = estimated_assignments(system.mode, n, v)
    _refuse_above(MAX_SWEEP_ASSIGNMENTS, count, f"estimated {shown}", "assignments")


def _refuse_large_repair(system, n: int):
    """Refuse, before any read, a value table above ``MAX_REPAIR_TABLE``."""
    a = system.arity
    shown = f"C({n}+{a}-1,{a})" if system.mode == "multiset" else f"{n}^{a}"
    count = estimated_table_tuples(system.mode, n, a)
    _refuse_above(MAX_REPAIR_TABLE, count, f"estimated {shown}", "value-table tuples")


def _load_pair(args):
    """The ``--kernel`` and ``--constraint`` files, refused unless of one arity."""
    kernel = load_kernel(args.kernel)
    system = load_constraint(args.constraint, kernel.space)
    _check_arity(kernel, system)
    return kernel, system


def cmd_eval(args) -> int:
    kernel = load_kernel(args.kernel)
    value = kernel.value_at(args.point)
    print(value_to_text(kernel.space, value))
    return 0


def cmd_density(args) -> int:
    kernel = load_kernel(args.kernel)
    partition = epsilon_partition(kernel.space, args.epsilon)
    cell_index = None
    if args.target_value is not None:
        cell_index = partition.cell_of(value_from_text(kernel.space, args.target_value))
    mass = density_mass(kernel, partition, args.point, args.m, cell_index)
    print(frac_str(mass))
    return 0


def cmd_correct(args) -> int:
    kernel, system = _load_pair(args)
    _refuse_large_system_sweep(system, len(args.points))
    _refuse_large_repair(system, len(args.points))
    config = RepairConfig(epsilon=args.epsilon, seed=args.seed)
    outcome = repair(kernel, system, args.points, config)
    doc = {
        "inputs": {
            "kernel": kernel_to_doc(kernel),
            "constraint": constraint_to_doc(system, kernel.space),
            "points": [frac_str(x) for x in sorted(args.points)],
            "epsilon": frac_str(config.epsilon),
            "seed": config.seed,
        },
        "result": outcome.report,
    }
    if args.out:
        write_report(doc, args.out)
    else:
        sys.stdout.write(to_json(doc))
    print(f"status: {outcome.status}", file=sys.stderr)
    return 0 if outcome.ok else 2


def cmd_ramsey(args) -> int:
    if args.parts < 1 or args.size < 1:
        raise ContractError("parts and size must be positive")
    if len(args.profile) != args.parts:
        raise ContractError("profile length must equal the number of parts")
    if args.colors < 1:
        raise ContractError("at least one color is required")
    _refuse_above(MAX_REPAIR_TABLE, args.size, str(args.size), "elements per part")
    validate_request([range(args.size)] * args.parts, args.profile, args.target)
    shown = "*".join(f"C({args.size},{t})" for t in args.profile)
    count = estimated_selections(args.size, args.profile)
    _refuse_above(MAX_REPAIR_TABLE, count, f"estimated {shown}", "colored selections")
    parts = [[f"{i}.{j}" for j in range(args.size)] for i in range(args.parts)]
    rng = random.Random(f"{args.seed}:coloring")
    table = {
        sel: rng.randrange(args.colors)
        for sel in all_selections(parts, args.profile)
    }
    try:
        cores = extract_core(parts, args.profile, table.__getitem__, args.target)
    except ExtractionFailed:
        print("no monochromatic core: proven absent")
        return 2
    doc = {"cores": [list(c) for c in cores]}
    sys.stdout.write(to_json(doc))
    return 0


def cmd_demo(args) -> int:
    report = run_demo(args.name, seed=args.seed)
    if args.out:
        write_report(report.to_doc(), args.out)
    sys.stdout.write(to_json(report.summary))
    return 0 if DEMO_EXPECTATIONS[args.name](report.summary) else 2


def cmd_audit(args) -> int:
    kernel, system = _load_pair(args)
    v = system.variables
    # one float per variable and trial; every system has a variable, so this caps trials
    shown = f"estimated {args.trials}*{v}"
    _refuse_above(MAX_SWEEP_ASSIGNMENTS, args.trials * v, shown, "audit draws")
    # a trial's floats, their set and their blocks are held at once
    _refuse_above(MAX_REPAIR_TABLE, v, str(v), "draws in one audit trial")
    res = audit_ae_hypothesis(kernel, system, samples=args.trials, seed=args.seed)
    doc = {
        "violations": res.violations,
        "samples": res.samples,
        "rate": res.rate,
        "interval": [res.interval_low, res.interval_high],
    }
    sys.stdout.write(to_json(doc))
    return 0


def _read_values(table: dict, space) -> dict:
    """A report's value table with each value parsed, each distinct text once."""
    parsed: dict = {}
    values = {}
    for key, text in table.items():
        if type(text) is not str:
            _not_float(text, f"report.values[{key!r}]")
            values[key] = value_from_text(space, text)
        elif text in parsed:
            values[key] = parsed[text]
        else:
            values[key] = parsed[text] = value_from_text(space, text)
    return values


def _differing_key(field: str, judged, reported):
    """The first tuple key at which a per-tuple field of a report differs."""
    missing = object()
    if field == "density_closeness" and isinstance(reported, dict):
        both = [*judged, *reported]
        keys = (k for k in both if judged.get(k, missing) != reported.get(k, missing))
    elif field == "agreement_failures" and isinstance(reported, list):
        pairs = itertools.zip_longest(judged, reported, fillvalue=missing)
        keys = (b if a is missing else a for a, b in pairs if a != b)
    else:
        return None
    return next(keys, None)


def cmd_verify(args) -> int:
    kernel, system = _load_pair(args)
    doc = load_json(args.report, "report")
    if not isinstance(doc, dict):
        raise FormatError(f"report file {args.report}: expected an object at the top level")
    result = doc.get("result", doc)
    # a report written by correct names the files it repaired; a bare
    # result document carries no inputs to compare
    inputs = doc.get("inputs")
    if inputs is not None:
        if not isinstance(inputs, dict):
            raise FormatError(f"report file {args.report}: inputs must be an object")
        for key, given, built in (
            ("kernel", args.kernel, kernel_to_doc(kernel)),
            ("constraint", args.constraint, constraint_to_doc(system, kernel.space)),
        ):
            if inputs.get(key) != built:
                raise FormatError(
                    f"report file {args.report}: its inputs.{key} differs from {given}"
                )
    try:
        part = result["part"]
        listed = result["points"]
        _refuse_large_system_sweep(system, len(listed))
        _refuse_large_repair(system, len(listed))
        points = tuple(_fraction(p, "report.points") for p in listed)
        eps = _fraction(result["epsilon"], "report.epsilon")
        if eps < 0:
            raise ContractError("epsilon must be nonnegative")
        table = result["values"]
        if not isinstance(table, dict):
            raise TypeError("values must be an object")
        _refuse_above(MAX_REPAIR_TABLE, len(table), str(len(table)), "report values")
        values = _read_values(table, kernel.space)
    except (ContractError, FormatError):
        raise
    except (KeyError, TypeError, DomainError, ValueError) as exc:
        raise FormatError(f"report file {args.report} is missing repair data: {exc}") from exc
    if not points or points != tuple(sorted(set(points))) or points[0] < 0 or points[-1] >= 1:
        raise FormatError("report.points must be nonempty, sorted, distinct and in [0, 1)")
    # the constraint's mode, not the report, decides whether lookups sort
    multiset = system.mode == "multiset"
    if type(part) is not int or part != (2 if multiset else 1):
        raise FormatError(f"report file {args.report}: its part {part!r} does not match "
                          f"the constraint's {system.mode} mode")
    # the judge reads one key per tuple correct writes and refuses a missing
    # one, so a key at no tuple shows, before the sweep, as one key too many
    if len(table) > estimated_table_tuples(system.mode, len(points), system.arity):
        names = [frac_str(x) for x in points]
        tuples = (
            itertools.combinations_with_replacement(names, system.arity)
            if multiset else itertools.product(names, repeat=system.arity)
        )
        keys = {",".join(t) for t in tuples}
        unread = next(key for key in table if key not in keys)
        raise FormatError(f"report file {args.report}: values has {unread!r}, "
                          f"which is no {'sorted tuple' if multiset else 'tuple'} of its points")
    judged, _, viols = judge(kernel, system, points, eps, values)
    for v in viols[:10]:
        shown = ",".join(judged["points"][i] for i in v.assignment)
        print(f"violated: {v.detail} at ({shown})")
    n, v = len(points), system.variables
    # multiset mode sweeps every n^v tuple, distinct mode only the injective ones
    checked = f"{n}^{v}" if system.mode == "multiset" else str(math.perm(n, v))
    print(f"checked {checked} assignments: "
          f"{'all atoms hold' if not viols else f'{len(viols)} violations'}")
    # every field the report carries must be the judged one, but for its inputs
    derived = judged.keys() - {"epsilon", "points", "values"}
    differs = [f for f in judged if f in derived and f in result and result[f] != judged[f]]
    for field in differs:
        key = _differing_key(field, judged[field], result[field])
        print(f"mismatch: {field}" + (f" at {key}" if isinstance(key, str) else ""))
    return 0 if not viols and not differs else 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # looked up at call time, so a replaced cmd_* function takes effect
    # although the parser is built once per process
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (FormatError, ContractError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
