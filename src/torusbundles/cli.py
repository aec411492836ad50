"""Command-line driver for bundle checks, solves, and certificates.

One JSON input document serves every command; optional sections are
required only by the commands that read them.  Exit status 0 means all
checks passed, 1 means a check failed (the report names the violated
condition), 2 means the input could not be parsed or validated.
"""

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .complex_structures import (
    ComplexStructurePair,
    decompose,
    is_parallelizable,
    riemann_residual,
    standard_structure,
)
from .lattice_core import BundleDatum, is_nondegenerate, pfaffian_reality
from .real_structures import (
    OrbifoldConjugationData,
    RealStructureData,
    check_dianalytic_conditions,
    check_integral_conditions,
    eigensplit,
    normalize_translation,
    orbifold_data,
    reconstruct_from_orbifold,
)
from .solver_explorer import (
    ConstraintSystem,
    connectivity_certificate,
    sample_solutions,
    solve,
)

COMMANDS = (
    "check-bundle",
    "check-real",
    "decompose",
    "solve",
    "sample",
    "certify",
    "reconstruct",
)


class InputError(Exception):
    """Malformed or missing input data; maps to exit status 2."""


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _section(doc, name):
    if name not in doc:
        raise InputError(f"missing required section '{name}'")
    return doc[name]


def _load_datum(doc) -> BundleDatum:
    for key in ("m", "d", "components"):
        if key not in doc:
            raise InputError(f"missing required field '{key}'")
    try:
        return BundleDatum(
            m=int(doc["m"]),
            d=int(doc["d"]),
            components=tuple(
                tuple(tuple(entry for entry in row) for row in mat)
                for mat in doc["components"]
            ),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid bundle datum: {exc}") from exc


def _load_real_structure(doc) -> RealStructureData:
    block = _section(doc, "real_structure")
    for key in ("A1", "A2", "L", "d1", "d2"):
        if key not in block:
            raise InputError(f"missing field 'real_structure.{key}'")
    try:
        return RealStructureData(
            A1=tuple(tuple(r) for r in block["A1"]),
            A2=tuple(tuple(r) for r in block["A2"]),
            L=tuple(tuple(r) for r in block["L"]),
            d1=tuple(block["d1"]),
            d2=tuple(block["d2"]),
        )
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid real structure: {exc}") from exc


def _load_pair(doc, datum) -> ComplexStructurePair:
    try:
        j1 = np.array(doc["J1"], dtype=float) if "J1" in doc else standard_structure(datum.d)
        j2 = np.array(doc["J2"], dtype=float) if "J2" in doc else standard_structure(datum.m)
        return ComplexStructurePair(J1=j1, J2=j2)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid complex structure pair: {exc}") from exc


def _load_system(doc) -> ConstraintSystem:
    """Constraint system from the 'system' block, or via the eigensplit."""
    if "system" in doc:
        block = doc["system"]
        keys = ("l_pp", "l_pm", "l_mp", "l_mm")
        for key in keys:
            if key not in block:
                raise InputError(f"missing field 'system.{key}'")
        try:
            rows = [np.array(block[key], dtype=float) for key in keys]
            m = int(block.get("m", len(rows[0])))
            scalars = np.array([block.get("a_plus", 0.0), block.get("a_minus", 0.0)], dtype=float)
            d_block = np.array(block.get("D", np.zeros((m, m))), dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid system block: {exc}") from exc
        if not all(np.isfinite(arr).all() for arr in (scalars, d_block, *rows)):
            raise InputError("invalid system block: entries must be finite numbers")
        try:
            return ConstraintSystem.from_blocks(m, *scalars.tolist(), d_block, *rows)
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid system block: {exc}") from exc
    if "real_structure" in doc:
        datum = _load_datum(doc)
        rs = _load_real_structure(doc)
        try:
            return ConstraintSystem.from_split(eigensplit(datum, rs))
        except ValueError as exc:
            raise InputError(f"cannot derive a system from the real structure: {exc}") from exc
    raise InputError("need a 'system' block or a 'real_structure' block")


# ---------------------------------------------------------------------------
# command handlers: each returns (report, failed condition names)


def _cmd_check_bundle(doc, args):
    datum = _load_datum(doc)
    report = {
        "command": "check-bundle",
        "m": datum.m,
        "d": datum.d,
        "nondegenerate": is_nondegenerate(datum),
    }
    failed = []
    if not report["nondegenerate"]:
        failed.append("nondegenerate")
    if datum.d == 1:
        report["pfaffian-reality"] = pfaffian_reality(datum)
        if not report["pfaffian-reality"]:
            failed.append("pfaffian-reality")
    return report, failed


def _cmd_check_real(doc, args):
    datum = _load_datum(doc)
    rs = _load_real_structure(doc)
    pair = _load_pair(doc, datum)
    integral = check_integral_conditions(datum, rs)
    tol = args.tol if args.tol is not None else 1e-8
    try:
        dianalytic = check_dianalytic_conditions(datum, rs, pair, tol=tol)
    except ValueError as exc:
        raise InputError(f"dianalytic check needs a compatible pair: {exc}") from exc
    failed = []
    for name, item in integral.items():
        if isinstance(item, dict) and not item.get("ok", True):
            failed.append(name)
    for name, item in dianalytic.items():
        if isinstance(item, dict) and not item.get("ok", True):
            failed.append(name)
    report = {
        "command": "check-real",
        "integral": integral,
        "dianalytic": dianalytic,
        "failed": failed,
    }
    return report, failed


def _cmd_decompose(doc, args):
    datum = _load_datum(doc)
    pair = _load_pair(doc, datum)
    try:
        residual = riemann_residual(datum, pair)
    except ValueError as exc:
        raise InputError(f"invalid complex structure pair: {exc}") from exc
    tol = args.tol if args.tol is not None else 1e-8
    failed = []
    report = {
        "command": "decompose",
        "compatibility_residual": residual,
    }
    if residual > tol:
        failed.append("first-compatibility-equation")
        report["failed"] = failed
        return report, failed
    dec = decompose(datum, pair, tol=tol)
    report.update(
        {
            "B_prime": dec.B_prime,
            "B_doubleprime": dec.B_doubleprime,
            "riemann_defect": dec.riemann_defect,
            "reconstruction_residual": dec.reconstruction_residual,
            "parallelizable": is_parallelizable(dec),
        }
    )
    return report, failed


def _cmd_solve(doc, args):
    system = _load_system(doc)
    desc = solve(system)
    report = {"command": "solve", "description": desc.to_dict()}
    return report, []


def _cmd_sample(doc, args):
    system = _load_system(doc)
    desc = solve(system)
    report = {
        "command": "sample",
        "case": desc.case_label,
        "kind": desc.kind,
        "requested": args.samples,
        "seed": args.seed,
    }
    if desc.is_empty:
        report["samples"] = []
        report["failed"] = ["nonempty-family"]
        return report, ["nonempty-family"]
    witnesses = sample_solutions(system, args.samples, seed=args.seed)
    report["samples"] = [w.to_dict() for w in witnesses]
    return report, []


def _cmd_certify(doc, args):
    system = _load_system(doc)
    desc = solve(system)
    cert = connectivity_certificate(system, samples=args.samples, seed=args.seed)
    if desc.is_empty:
        expected = 0
    elif desc.kind == "stratum":
        expected = desc.constants.get("stratum_components", 1)
    else:
        expected = 1
    failed = [] if cert.component_count == expected else ["connectedness"]
    report = {
        "command": "certify",
        "component_count": cert.component_count,
        "expected_components": expected,
        "certificate": cert.to_dict(),
    }
    if failed:
        report["failed"] = failed
    return report, failed


def _cmd_reconstruct(doc, args):
    datum = _load_datum(doc)
    if "orbifold" in doc:
        block = doc["orbifold"]
        for key in (
            "A1",
            "A2",
            "d2",
            "generator_translations",
            "square_translation_y",
            "square_translation_x",
        ):
            if key not in block:
                raise InputError(f"missing field 'orbifold.{key}'")
        lifts = block.get(
            "lifts",
            tuple(tuple(0 for _ in range(2 * datum.d)) for _ in range(2 * datum.m)),
        )
        try:
            data = OrbifoldConjugationData(
                A1=tuple(tuple(r) for r in block["A1"]),
                A2=tuple(tuple(r) for r in block["A2"]),
                d2=tuple(block["d2"]),
                generator_translations=tuple(tuple(t) for t in block["generator_translations"]),
                square_translation_y=tuple(block["square_translation_y"]),
                square_translation_x=tuple(block["square_translation_x"]),
                lifts=tuple(tuple(t) for t in lifts),
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"invalid orbifold block: {exc}") from exc
        try:
            rec = reconstruct_from_orbifold(datum, data)
        except ValueError as exc:
            report = {"command": "reconstruct", "failed": ["consistency"], "error": str(exc)}
            return report, ["consistency"]
        report = {
            "command": "reconstruct",
            "real_structure": {
                "A1": rec.A1,
                "A2": rec.A2,
                "L": rec.L,
                "d1": rec.d1,
                "d2": rec.d2,
            },
        }
        return report, []
    rs = _load_real_structure(doc)
    data = orbifold_data(datum, rs)
    rec = reconstruct_from_orbifold(datum, data)
    expected = normalize_translation(rs)
    exact = rec == expected
    report = {
        "command": "reconstruct",
        "orbifold": {
            "A1": data.A1,
            "A2": data.A2,
            "d2": data.d2,
            "generator_translations": data.generator_translations,
            "square_translation_y": data.square_translation_y,
            "square_translation_x": data.square_translation_x,
        },
        "real_structure": {
            "A1": rec.A1,
            "A2": rec.A2,
            "L": rec.L,
            "d1": rec.d1,
            "d2": rec.d2,
        },
        "round_trip_exact": exact,
    }
    failed = [] if exact else ["round-trip"]
    if failed:
        report["failed"] = failed
    return report, failed


_HANDLERS = {
    "check-bundle": _cmd_check_bundle,
    "check-real": _cmd_check_real,
    "decompose": _cmd_decompose,
    "solve": _cmd_solve,
    "sample": _cmd_sample,
    "certify": _cmd_certify,
    "reconstruct": _cmd_reconstruct,
}


# ---------------------------------------------------------------------------
# rendering


def _human_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (dict, list)):
        text = json.dumps(value, sort_keys=True)
        if isinstance(value, list) and len(text) > 120:
            # bulk payloads stay readable; --format machine has the data
            return f"[{len(value)} entries]"
        return text
    return str(value)


def _human_lines(report, prefix=""):
    lines = []
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value and all(
            not isinstance(v, (dict, list)) for v in value.values()
        ):
            inner = ", ".join(f"{k}: {_human_value(v)}" for k, v in value.items())
            lines.append(f"{path}: {inner}")
        elif isinstance(value, dict):
            lines.extend(_human_lines(value, prefix=f"{path}."))
        else:
            lines.append(f"{path}: {_human_value(value)}")
    return lines


def render(report, fmt):
    safe = _jsonable(report)
    if fmt == "machine":
        return json.dumps(safe, sort_keys=True, indent=2) + "\n"
    return "\n".join(_human_lines(safe)) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torusbundles",
        description="checks, solvers, and connectivity certificates "
        "for torus-bundle data",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path to the JSON input document")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    args = parser.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                print(
                    f"input error: {args.input}:{exc.lineno}:{exc.colno}: {exc.msg}",
                    file=sys.stderr,
                )
                return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("input error: top-level JSON value must be an object", file=sys.stderr)
        return 2

    try:
        report, failed = _HANDLERS[args.command](doc, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    report["ok"] = not failed
    text = render(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
