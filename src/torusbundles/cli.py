"""Command-line driver for bundle checks, solves, and certificates.

One JSON input document serves every command; optional sections are
required only by the commands that read them.  Exit status 0 means all
checks passed, 1 means a check failed (the report names the violated
condition), 2 means the input could not be parsed or validated, and 3
means the command itself failed (an internal error, reported on one line).
"""

import argparse
import json
import sys

import numpy as np

from .complex_structures import (
    ComplexStructurePair,
    IncompatibleFormError,
    decompose,
    is_parallelizable,
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

class InputError(Exception):
    """Malformed or missing input data; maps to exit status 2."""


def _section(doc, name):
    if name not in doc:
        raise InputError(f"missing required section '{name}'")
    if not isinstance(doc[name], dict):
        raise InputError(f"section '{name}' must be a JSON object")
    return doc[name]


def _load_datum(doc) -> BundleDatum:
    for key in ("m", "d", "components"):
        if key not in doc:
            raise InputError(f"missing required field '{key}'")
    try:
        return BundleDatum(
            m=int(doc["m"]),
            d=int(doc["d"]),
            components=doc["components"],
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid bundle datum: {exc}") from exc


def _has_shape(value, shape) -> bool:
    if not shape:
        return not isinstance(value, (list, tuple))
    return (
        isinstance(value, (list, tuple))
        and len(value) == shape[0]
        and all(_has_shape(row, shape[1:]) for row in value)
    )


def _check_fields(section, what, block, shapes, datum):
    """Exit 2 naming the first field of the section that is missing or not
    nested to the shape that m and d give it."""
    for key, shape in shapes.items():
        if key not in block:
            raise InputError(f"missing field '{section}.{key}'")
        if not _has_shape(block[key], shape):
            dims = " x ".join(str(n) for n in shape)
            raise InputError(
                f"invalid {what}: {key} must be {dims} for m = {datum.m}, d = {datum.d}"
            )


def _load_real_structure(doc, datum) -> RealStructureData:
    block = _section(doc, "real_structure")
    n1, n2 = 2 * datum.d, 2 * datum.m
    shapes = {"A1": (n1, n1), "A2": (n2, n2), "L": (n1, n2), "d1": (n1,), "d2": (n2,)}
    _check_fields("real_structure", "real structure", block, shapes, datum)
    try:
        return RealStructureData(**{key: block[key] for key in shapes})
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid real structure: {exc}") from exc


def _require_floats(datum, rs=None):
    """Exit 2 naming the first exact field with an entry beyond the float
    range; the commands that compute in floats read these fields as floats."""
    fields = {"components": datum.components}
    if rs is not None:
        fields.update(A1=rs.A1, A2=rs.A2, L=rs.L, d1=rs.d1, d2=rs.d2)
    for key, values in fields.items():
        try:
            np.array(values, dtype=float)
        except OverflowError:
            raise InputError(f"{key} has an entry beyond the float range") from None


def _strs(values) -> list:
    """Rational entries, nested to any depth, as 'p/q' strings."""
    return [_strs(v) if isinstance(v, tuple) else str(v) for v in values]


def _complex(arr) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def _structure_block(rs: RealStructureData) -> dict:
    return {"A1": rs.A1, "A2": rs.A2, "L": _strs(rs.L), "d1": _strs(rs.d1), "d2": _strs(rs.d2)}


def _load_pair(doc, datum) -> ComplexStructurePair:
    try:
        j1 = np.array(doc["J1"], dtype=float) if "J1" in doc else standard_structure(datum.d)
        j2 = np.array(doc["J2"], dtype=float) if "J2" in doc else standard_structure(datum.m)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"invalid complex structure pair: {exc}") from exc
    try:
        return ComplexStructurePair(J1=j1, J2=j2)
    except ValueError as exc:
        raise InputError(f"invalid complex structure pair: {exc}") from exc


def _load_family(doc):
    """(system, solved description), from the 'system' block or via the eigensplit;
    exit 2 when a constant of the family lies beyond the float range of the charts."""
    if "system" in doc:
        block = _section(doc, "system")
        keys = ("l_pp", "l_pm", "l_mp", "l_mm")
        for key in keys:
            if key not in block:
                raise InputError(f"missing field 'system.{key}'")
        try:
            m = int(block.get("m", len(block["l_pp"])))
            system = ConstraintSystem.from_blocks(
                m, block.get("a_plus", 0), block.get("a_minus", 0),
                block.get("D", np.zeros((m, m), dtype=int)), *(block[key] for key in keys),
            )
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InputError(f"invalid system block: {exc}") from exc
    elif "real_structure" in doc:
        datum = _load_datum(doc)
        rs = _load_real_structure(doc, datum)
        try:
            system = ConstraintSystem.from_split(eigensplit(datum, rs))
        except (ValueError, OverflowError) as exc:
            raise InputError(f"cannot derive a system from the real structure: {exc}") from exc
    else:
        raise InputError("need a 'system' block or a 'real_structure' block")
    try:
        return system, solve(system)
    except OverflowError as exc:
        raise InputError(f"a constant of the family lies beyond the float range: {exc}") from exc


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
    rs = _load_real_structure(doc, datum)
    _require_floats(datum, rs)
    pair = _load_pair(doc, datum)
    integral = check_integral_conditions(datum, rs)
    tol = args.tol if args.tol is not None else 1e-8
    try:
        dianalytic = check_dianalytic_conditions(datum, rs, pair, tol=tol)
    except ValueError as exc:
        raise InputError(f"dianalytic check needs a compatible pair: {exc}") from exc
    reps = dianalytic["complex_representatives"]
    dianalytic["complex_representatives"] = {key: _complex(arr) for key, arr in reps.items()}
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
    _require_floats(datum)
    pair = _load_pair(doc, datum)
    tol = args.tol if args.tol is not None else 1e-8
    try:
        dec = decompose(datum, pair, tol=tol)
    except IncompatibleFormError as exc:
        failed = ["first-compatibility-equation"]
        report = {"command": "decompose", "compatibility_residual": exc.residual, "failed": failed}
        return report, failed
    except ValueError as exc:
        raise InputError(f"cannot decompose the complex structure pair: {exc}") from exc
    report = {
        "command": "decompose",
        "compatibility_residual": dec.riemann_defect,
        "B_prime": _complex(dec.B_prime),
        "B_doubleprime": _complex(dec.B_doubleprime),
        "riemann_defect": dec.riemann_defect,
        "reconstruction_residual": dec.reconstruction_residual,
        "parallelizable": is_parallelizable(dec),
    }
    return report, []


def _cmd_solve(doc, args):
    _, desc = _load_family(doc)
    report = {"command": "solve", "description": desc.to_dict()}
    return report, []


def _cmd_sample(doc, args):
    system, desc = _load_family(doc)
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
    system, desc = _load_family(doc)
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
        n1, n2 = 2 * datum.d, 2 * datum.m
        block = {"lifts": [[0] * n1 for _ in range(n2)], **_section(doc, "orbifold")}
        shapes = {
            "A1": (n1, n1),
            "A2": (n2, n2),
            "d2": (n2,),
            "generator_translations": (n2, n1),
            "square_translation_y": (n1,),
            "square_translation_x": (n2,),
            "lifts": (n2, n1),
        }
        _check_fields("orbifold", "orbifold block", block, shapes, datum)
        try:
            data = OrbifoldConjugationData(**{key: block[key] for key in shapes})
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid orbifold block: {exc}") from exc
        try:
            rec = reconstruct_from_orbifold(datum, data)
        except ValueError as exc:
            report = {"command": "reconstruct", "failed": ["consistency"], "error": str(exc)}
            return report, ["consistency"]
        return {"command": "reconstruct", "real_structure": _structure_block(rec)}, []
    rs = _load_real_structure(doc, datum)
    data = orbifold_data(datum, rs)
    rec = reconstruct_from_orbifold(datum, data)
    expected = normalize_translation(rs)
    exact = rec == expected
    report = {
        "command": "reconstruct",
        "orbifold": {
            "A1": data.A1,
            "A2": data.A2,
            "d2": _strs(data.d2),
            "generator_translations": _strs(data.generator_translations),
            "square_translation_y": _strs(data.square_translation_y),
            "square_translation_x": _strs(data.square_translation_x),
        },
        "real_structure": _structure_block(rec),
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
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (dict, list, tuple)):
        text = json.dumps(value, sort_keys=True)
        if not isinstance(value, dict) and len(text) > 120:
            # bulk payloads stay readable; --format machine has the data
            return f"[{len(value)} entries]"
        return text
    return str(value)


def _human_lines(report, prefix=""):
    lines = []
    for key, value in report.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict) and value and all(
            not isinstance(v, (dict, list, tuple)) for v in value.values()
        ):
            inner = ", ".join(f"{k}: {_human_value(v)}" for k, v in value.items())
            lines.append(f"{path}: {inner}")
        elif isinstance(value, dict):
            lines.extend(_human_lines(value, prefix=f"{path}."))
        else:
            lines.append(f"{path}: {_human_value(value)}")
    return lines


def render(report, fmt):
    if fmt == "machine":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return "\n".join(_human_lines(report)) + "\n"


def _read_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer beyond the digit limit, or nested too deeply
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("top-level JSON value must be an object")
    return doc


def _write(text, out):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(str(exc)) from exc


_PARSER = argparse.ArgumentParser(
    prog="torusbundles",
    description="checks, solvers, and connectivity certificates for torus-bundle data",
)
_PARSER.add_argument("command", choices=_HANDLERS)
_PARSER.add_argument("input", help="path to the JSON input document")
_PARSER.add_argument("--seed", type=int, default=0)
_PARSER.add_argument("--samples", type=int, default=20)
_PARSER.add_argument("--tol", type=float, default=None)
_PARSER.add_argument("--out", default=None)
_PARSER.add_argument("--format", choices=("human", "machine"), default="human")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        for bad, rule in (
            (args.samples < 1, "--samples must be at least 1"),
            (args.seed < 0, "--seed must be non-negative"),
            (args.tol is not None and not 0 <= args.tol < float("inf"), "--tol must be finite and >= 0"),
        ):
            if bad:
                raise InputError(rule)
        report, failed = _HANDLERS[args.command](_read_document(args.input), args)
        report["ok"] = not failed
        _write(render(report, args.format), args.out)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
