"""JSON interchange for kernels, constraint systems, and reports.

All coordinates, constants, and numeric values travel as exact decimal or
rational strings ("0.3", "3/10", "inf") or integers, never as binary floats:
cell membership must be decided bit-exactly, and a float in the file would
make box boundaries ambiguous, so the loaders refuse one.  Value labels of finite metric spaces are plain
strings.  Malformed documents raise FormatError with the offending field.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from .constraint import (
    AffineAtom,
    ConstraintSystem,
    EqualityAtom,
    FiniteValuesAtom,
    TableAtom,
    ZeroProductAtom,
    symmetry_atoms,
)
from .errors import ContractError, DomainError, FormatError
from .kernel import CoordIs, CoordsEqual, ExceptionPiece, StepKernel
from .rational import as_fraction, frac_str
from .values import (
    BoundedInterval,
    CompactifiedRay,
    FiniteMetric,
    ValueSpace,
    value_from_text,
    value_to_text,
)

#: Most equalities a "symmetry" entry may expand to, counted before
#: duplicates drop: arity 6 over 6 variables would be 517,680 and take
#: seconds, arity 7 over 7 would exhaust memory.
MAX_SYMMETRY_EQUALITIES = 50_000

#: Highest arity a kernel file may declare at a resolution below 2.
#: Building the kernel makes base-block tuples of that length, and at
#: resolution 1 one base value serves any arity: arity 2,000,000 took
#: 0.49 s and 93 MB before the point check failed, and the cost grows
#: linearly.  At resolution 2 or more the base length bounds the arity
#: already (``StepKernel.from_flat``).
MAX_KERNEL_ARITY = 1_000

#: Most assignments one ``correct`` or ``verify`` sweep, or draws (trials
#: times variables) one ``audit``, may take.  The largest sweep of the tests, demos and benchmark
#: is 6^3 = 216; 30 points over 8 variables in multiset mode would be
#: 30^8, about 6.6e11, and run for days.
MAX_SWEEP_ASSIGNMENTS = 10_000_000

#: Most value-table tuples one ``correct`` may read, and most guarded
#: samples it may draw.  The table has ``points ** arity`` tuples in
#: distinct mode and C(points + arity - 1, arity) in multiset mode, whatever
#: the sweep's size; the samples are points times the pool size.  The
#: tables of the tests, demos and benchmark hold at most 6^3 = 216 tuples,
#: and their repairs draw a few dozen samples.
MAX_REPAIR_TABLE = 1_000_000


def _capped(steps, cap: int) -> int:
    """The product of ``factor / divisor`` over the steps, or a number past the cap.

    Every partial product must be a whole number, so each division is exact.
    The product stops at the first partial one that is 0 or past ``cap``, so
    a huge count of steps costs only the steps up to there; where no later
    step shrinks it, the whole is past the cap too.
    """
    count = 1
    for factor, divisor in steps:
        count = count * factor // divisor
        if count == 0 or count > cap:
            break
    return count


def _symmetry_equalities(arity: int, variables: int) -> int:
    """(arity! - 1) * variables! / (variables - arity)!, or a number past
    ``MAX_SYMMETRY_EQUALITIES``: how many equalities ``symmetry_atoms``
    renames before it drops duplicates, none with fewer variables than arity.
    """
    if variables < arity:
        return 0
    orderings = _capped(((k, 1) for k in range(2, arity + 1)), MAX_SYMMETRY_EQUALITIES)
    falling = ((variables - k, 1) for k in range(arity))
    return _capped(itertools.chain([(orderings - 1, 1)], falling), MAX_SYMMETRY_EQUALITIES)


def estimated_assignments(mode: str, points: int, variables: int) -> int:
    """points ** variables in multiset mode, points! / (points - variables)! in
    distinct mode, or a number past ``MAX_SWEEP_ASSIGNMENTS``: how many
    assignments ``violations`` sweeps.
    """
    if mode == "multiset" and points <= 1:
        # the product never grows, so it would take ``variables`` steps
        return points
    if mode != "multiset" and points < variables:
        return 0  # no injective assignment; the product would pass the cap first
    steps = ((points if mode == "multiset" else points - k, 1) for k in range(variables))
    return _capped(steps, MAX_SWEEP_ASSIGNMENTS)


def estimated_table_tuples(mode: str, points: int, arity: int) -> int:
    """points ** arity in distinct mode, C(points + arity - 1, arity) in
    multiset mode, or a number past ``MAX_REPAIR_TABLE``: how many tuples the
    value table of ``repair`` holds.
    """
    if points <= 1:
        # the product never grows, so it would take ``arity`` steps
        return points
    # C(points + k, k + 1) from C(points + k - 1, k) in multiset mode
    steps = ((points + k, k + 1) if mode == "multiset" else (points, 1) for k in range(arity))
    return _capped(steps, MAX_REPAIR_TABLE)


def estimated_selections(size: int, profile) -> int:
    """The product of C(size, t) over the profile, or a number past
    ``MAX_REPAIR_TABLE``: how many selections a coloring of equal parts of
    ``size`` elements holds.  Subset sizes must lie in 0..size.
    """
    # C(size, t) as C(size - k + i, i) for i = 1..k, k = min(t, size - t)
    ks = (min(t, size - t) for t in profile)
    return _capped(((size - k + i, i) for k in ks for i in range(1, k + 1)), MAX_REPAIR_TABLE)


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object")
    if key not in doc:
        raise FormatError(f"{where}: missing required key {key!r}")
    return doc[key]


def _list(value, where: str):
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{where}: expected a list")
    return value


def _int(value, where: str) -> int:
    # bool is an int subclass, and JSON true is no index
    if type(value) is not int:
        raise FormatError(f"{where}: expected an integer")
    return value


def _not_float(value, where: str):
    # a JSON float is already rounded to binary; 0.1 would load as 0.1000...0555
    if type(value) is float:
        raise FormatError(
            f"{where}: expected an exact rational string or integer, not the float {value!r}"
        )


def _fraction(text, where: str) -> Fraction:
    _not_float(text, where)
    try:
        return as_fraction(text)
    except (TypeError, DomainError, ValueError) as exc:
        raise FormatError(f"{where}: not an exact rational: {text!r}") from exc


def _value(space: ValueSpace, text, where: str):
    """A value of the space from its text form (an integer is read as its text)."""
    _not_float(text, where)
    try:
        return value_from_text(space, str(text))
    except DomainError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def space_to_doc(space: ValueSpace) -> dict:
    if isinstance(space, FiniteMetric):
        return {
            "variant": "finite_metric",
            "labels": list(space.labels),
            "dist_matrix": [[frac_str(d) for d in row] for row in space.distances],
        }
    if isinstance(space, BoundedInterval):
        return {"variant": "bounded_interval", "diameter": frac_str(space.diameter)}
    if isinstance(space, CompactifiedRay):
        return {"variant": "compactified_ray"}
    raise ContractError(f"unknown value space {type(space).__name__}")


def space_from_doc(doc: dict) -> ValueSpace:
    where = "value_space"
    variant = _require(doc, "variant", where)
    try:
        if variant == "finite_metric":
            labels = _list(_require(doc, "labels", where), f"{where}.labels")
            matrix = _list(_require(doc, "dist_matrix", where), f"{where}.dist_matrix")
            rows = tuple(
                tuple(
                    _fraction(d, f"{where}.dist_matrix[{i}]")
                    for d in _list(row, f"{where}.dist_matrix[{i}]")
                )
                for i, row in enumerate(matrix)
            )
            return FiniteMetric(labels=tuple(labels), distances=rows)
        if variant == "bounded_interval":
            return BoundedInterval(_fraction(_require(doc, "diameter", where), f"{where}.diameter"))
        if variant == "compactified_ray":
            return CompactifiedRay()
    except ContractError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    raise FormatError(f"{where}: unknown variant {variant!r}")


def kernel_to_doc(kernel: StepKernel) -> dict:
    space = kernel.space
    flat = [
        value_to_text(space, kernel.base[blocks])
        for blocks in itertools.product(range(kernel.resolution), repeat=kernel.arity)
    ]
    exceptions = []
    for piece in kernel.exceptions:
        atoms = []
        for cond in piece.conditions:
            if isinstance(cond, CoordIs):
                atoms.append({"coord": cond.coord, "const": frac_str(cond.const)})
            else:
                atoms.append({"coord": cond.first, "equals": cond.second})
        exceptions.append({"atoms": atoms, "value": value_to_text(space, piece.value)})
    return {
        "arity": kernel.arity,
        "resolution": kernel.resolution,
        "value_space": space_to_doc(space),
        "base": flat,
        "exceptions": exceptions,
        "symmetric_base": kernel.symmetric_base,
    }


def kernel_from_doc(doc: dict) -> StepKernel:
    where = "kernel"
    arity = _require(doc, "arity", where)
    resolution = _require(doc, "resolution", where)
    if type(arity) is not int or type(resolution) is not int:
        raise FormatError(f"{where}: arity and resolution must be integers")
    if resolution < 2 and arity > MAX_KERNEL_ARITY:
        raise FormatError(f"{where}: arity {arity} exceeds the cap {MAX_KERNEL_ARITY}")
    space = space_from_doc(_require(doc, "value_space", where))
    flat_text = _list(_require(doc, "base", where), f"{where}.base")
    flat = [_value(space, v, f"{where}.base") for v in flat_text]
    symmetric = doc.get("symmetric_base", False)
    if type(symmetric) is not bool:
        raise FormatError(f"{where}.symmetric_base: expected true or false")
    pieces = []
    for i, entry in enumerate(_list(doc.get("exceptions", []), f"{where}.exceptions")):
        loc = f"{where}.exceptions[{i}]"
        conds = []
        for j, atom in enumerate(_list(_require(entry, "atoms", loc), f"{loc}.atoms")):
            at = f"{loc}.atoms[{j}]"
            coord = _int(_require(atom, "coord", at), f"{at}.coord")
            if "const" in atom:
                conds.append(CoordIs(coord, _fraction(atom["const"], f"{at}.const")))
            elif "equals" in atom:
                conds.append(CoordsEqual(coord, _int(atom["equals"], f"{at}.equals")))
            else:
                raise FormatError(f"{at}: needs 'const' or 'equals'")
        value = _value(space, _require(entry, "value", loc), f"{loc}.value")
        try:
            pieces.append(ExceptionPiece(tuple(conds), value))
        except ContractError as exc:
            raise FormatError(f"{loc}: {exc}") from exc
    try:
        return StepKernel.from_flat(
            arity=arity,
            resolution=resolution,
            space=space,
            flat_values=flat,
            exceptions=tuple(pieces),
            symmetric_base=symmetric,
        )
    except ContractError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _slot_doc(slot) -> list:
    return list(slot)


def _slot_from_doc(raw, where: str) -> tuple:
    if not isinstance(raw, (list, tuple)) or not all(type(v) is int for v in raw):
        raise FormatError(f"{where}: a slot must be a list of variable indices")
    return tuple(raw)


def constraint_to_doc(system: ConstraintSystem, space: ValueSpace) -> dict:
    atoms = []
    for atom in system.atoms:
        if isinstance(atom, EqualityAtom):
            atoms.append(
                {"kind": "equality", "left": _slot_doc(atom.left), "right": _slot_doc(atom.right)}
            )
        elif isinstance(atom, ZeroProductAtom):
            atoms.append(
                {"kind": "zero_product", "slots": [_slot_doc(s) for s in atom.factors]}
            )
        elif isinstance(atom, AffineAtom):
            atoms.append(
                {
                    "kind": "linear_ineq",
                    "coeffs": [frac_str(c) for c, _ in atom.terms],
                    "slots": [_slot_doc(s) for _, s in atom.terms],
                    "bound": frac_str(atom.bound),
                }
            )
        elif isinstance(atom, FiniteValuesAtom):
            atoms.append(
                {
                    "kind": "finite",
                    "slot": _slot_doc(atom.slot),
                    "allowed": sorted(value_to_text(space, v) for v in atom.allowed),
                }
            )
        elif isinstance(atom, TableAtom):
            atoms.append(
                {
                    "kind": "table",
                    "columns": [_slot_doc(s) for s in atom.columns],
                    "rows": sorted(
                        [value_to_text(space, v) for v in row] for row in atom.rows
                    ),
                }
            )
        else:
            raise ContractError(f"unknown atom type {type(atom).__name__}")
    return {
        "mode": system.mode,
        "arity": system.arity,
        "variables": system.variables,
        "atoms": atoms,
    }


def constraint_from_doc(doc: dict, space: ValueSpace) -> ConstraintSystem:
    where = "constraint"
    mode = _require(doc, "mode", where)
    raw_atoms = _require(doc, "atoms", where)
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise FormatError(f"{where}.atoms: expected a nonempty list")

    # arity and variables may be stated or inferred from explicit slots
    arity = doc.get("arity")
    variables = doc.get("variables")
    if arity is None or variables is None:
        slots_seen = []
        for i, entry in enumerate(raw_atoms):
            loc = f"{where}.atoms[{i}]"
            _require(entry, "kind", loc)
            for key in ("left", "right", "slot"):
                if key in entry:
                    slots_seen.append(_slot_from_doc(entry[key], f"{loc}.{key}"))
            for key in ("slots", "columns"):
                if key in entry:
                    slots_seen.extend(
                        _slot_from_doc(s, f"{loc}.{key}") for s in _list(entry[key], f"{loc}.{key}")
                    )
        if not slots_seen:
            raise FormatError(f"{where}: cannot infer arity or variables; state them explicitly")
        if arity is None:
            arity = len(slots_seen[0])
        if variables is None:
            variables = max(max(s, default=0) for s in slots_seen)
    arity = _int(arity, f"{where}.arity")
    variables = _int(variables, f"{where}.variables")

    atoms = []
    for i, entry in enumerate(raw_atoms):
        loc = f"{where}.atoms[{i}]"
        kind = _require(entry, "kind", loc)
        try:
            if kind == "symmetry":
                if _symmetry_equalities(arity, variables) > MAX_SYMMETRY_EQUALITIES:
                    raise FormatError(
                        f"{loc}: symmetry over arity {arity} and {variables} variables"
                        f" expands to more than {MAX_SYMMETRY_EQUALITIES} equalities"
                    )
                atoms.extend(symmetry_atoms(arity, variables))
            elif kind == "equality":
                atoms.append(
                    EqualityAtom(
                        _slot_from_doc(_require(entry, "left", loc), loc),
                        _slot_from_doc(_require(entry, "right", loc), loc),
                    )
                )
            elif kind == "zero_product":
                atoms.append(
                    ZeroProductAtom(
                        tuple(
                            _slot_from_doc(s, loc)
                            for s in _list(_require(entry, "slots", loc), f"{loc}.slots")
                        )
                    )
                )
            elif kind == "linear_ineq":
                coeffs = _list(_require(entry, "coeffs", loc), f"{loc}.coeffs")
                slots = _list(_require(entry, "slots", loc), f"{loc}.slots")
                if len(coeffs) != len(slots):
                    raise FormatError(f"{loc}: coeffs and slots must align")
                atoms.append(
                    AffineAtom(
                        tuple(
                            (_fraction(c, f"{loc}.coeffs[{k}]"), _slot_from_doc(s, loc))
                            for k, (c, s) in enumerate(zip(coeffs, slots))
                        ),
                        _fraction(_require(entry, "bound", loc), f"{loc}.bound"),
                    )
                )
            elif kind == "finite":
                atoms.append(
                    FiniteValuesAtom(
                        _slot_from_doc(_require(entry, "slot", loc), loc),
                        frozenset(
                            _value(space, v, f"{loc}.allowed")
                            for v in _list(_require(entry, "allowed", loc), f"{loc}.allowed")
                        ),
                    )
                )
            elif kind == "table":
                columns = tuple(
                    _slot_from_doc(s, loc)
                    for s in _list(_require(entry, "columns", loc), f"{loc}.columns")
                )
                rows = frozenset(
                    tuple(
                        _value(space, v, f"{loc}.rows[{j}]")
                        for v in _list(row, f"{loc}.rows[{j}]")
                    )
                    for j, row in enumerate(_list(_require(entry, "rows", loc), f"{loc}.rows"))
                )
                atoms.append(TableAtom(columns, rows))
            else:
                raise FormatError(f"{loc}: unknown atom kind {kind!r}")
        except ContractError as exc:
            raise FormatError(f"{loc}: {exc}") from exc
    try:
        return ConstraintSystem(
            arity=arity, variables=variables, mode=mode, atoms=tuple(atoms)
        )
    except ContractError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} file {path} is not UTF-8 text: {exc.reason}") from exc
    except RecursionError:
        raise FormatError(f"{what} file {path} nests too deeply to read") from None


def load_kernel(path: str) -> StepKernel:
    return kernel_from_doc(load_json(path, "kernel"))


def save_kernel(kernel: StepKernel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(kernel_to_doc(kernel)))


def load_constraint(path: str, space: ValueSpace) -> ConstraintSystem:
    return constraint_from_doc(load_json(path, "constraint"), space)


def save_constraint(system: ConstraintSystem, space: ValueSpace, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(constraint_to_doc(system, space)))


class _NotPlain(Exception):
    """A node that only ``json.dumps`` encodes exactly."""


_encode_str = json.encoder.encode_basestring_ascii


def _plain_json(node, indent: str) -> str:
    """``node`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it at
    ``indent``, for exact dict/list/tuple/str/int/bool/None/finite-float
    nodes with str keys; raises ``_NotPlain`` at any other node."""
    t = type(node)
    if t is str:
        return _encode_str(node)
    if t is dict:
        if not node:
            return "{}"
        for key in node:
            if type(key) is not str:
                raise _NotPlain
        inner = indent + "  "
        return "{\n" + inner + (",\n" + inner).join([
            _encode_str(key) + ": " + _plain_json(node[key], inner) for key in sorted(node)
        ]) + "\n" + indent + "}"
    if t is list or t is tuple:
        if not node:
            return "[]"
        inner = indent + "  "
        return "[\n" + inner + (",\n" + inner).join([
            _plain_json(item, inner) for item in node
        ]) + "\n" + indent + "]"
    if t is int:
        return int.__repr__(node)
    if t is bool:
        return "true" if node else "false"
    if node is None:
        return "null"
    if t is float and math.isfinite(node):
        return float.__repr__(node)
    raise _NotPlain


def to_json(doc: dict) -> str:
    """Canonical serialization: sorted keys, fixed separators, trailing newline.

    The text of ``json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=True)``, built in one pass, since ``json`` falls back to
    its pure-Python encoder whenever it indents.  A document with any other
    node (a non-str key, a non-finite float, a subclass, a cycle) goes to
    ``json.dumps`` whole, which encodes it or raises as it always did.
    """
    try:
        text = _plain_json(doc, "")
    except (_NotPlain, RecursionError):
        text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True)
    return text + "\n"


def write_report(doc: dict, path: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(doc))
    except OSError as exc:
        raise FormatError(f"cannot write report file {path}: {exc}") from exc


def strip_timing(doc):
    """Copy of a report with every timing field removed, for byte comparison."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "timing"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc
