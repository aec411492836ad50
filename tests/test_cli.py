"""Driver behavior: exit codes, report content, reproducible output."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from _oracles import _jsonable
from torusbundles import cli, complex_structures
from torusbundles.cli import main

KOD = {
    "m": 1,
    "d": 1,
    "components": [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]],
    "real_structure": {
        "A1": [[-1, 0], [0, 1]],
        "A2": [[1, 0], [0, -1]],
        "L": [[0, 0], [0, 0]],
        "d1": [0, 0],
        "d2": [0, 0],
    },
}

QUADRIC_SYS = {
    "system": {
        "m": 2,
        "a_plus": 1,
        "a_minus": 1,
        "D": [[0, 0], [0, 0]],
        "l_pp": [0, 0],
        "l_pm": [0, 0],
        "l_mp": [0, 0],
        "l_mm": [0, 0],
    }
}

# pfaffian form s^2 + t^2: no nonzero real root
DEFINITE = {
    "m": 2,
    "d": 1,
    "components": [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
    ],
}


def run(tmp_path, capsys, command, doc, *flags):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path), *flags])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_bundle_passes(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "check-bundle", KOD)
    assert rc == 0
    assert "nondegenerate: true" in out
    assert "pfaffian-reality: true" in out
    assert "ok: true" in out


def test_check_bundle_degenerate_fails(tmp_path, capsys):
    doc = {"m": 1, "d": 1,
           "components": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
    rc, out, _ = run(tmp_path, capsys, "check-bundle", doc)
    assert rc == 1
    assert "nondegenerate: false" in out


def test_check_bundle_definite_pfaffian_fails(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "check-bundle", DEFINITE)
    assert rc == 1
    assert "nondegenerate: true" in out
    assert "pfaffian-reality: false" in out


def test_check_real_passes(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "check-real", KOD)
    assert rc == 0
    assert "ok: true" in out


def test_check_real_names_failed_condition(tmp_path, capsys):
    doc = json.loads(json.dumps(KOD))
    doc["real_structure"]["d2"] = ["1/3", 0]
    rc, out, _ = run(tmp_path, capsys, "check-real", doc)
    assert rc == 1
    assert "I5" in out and "failed" in out


def test_decompose(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "decompose", KOD, "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["parallelizable"] is False
    assert report["reconstruction_residual"] <= 1e-12


def test_solve_machine_deterministic(tmp_path, capsys):
    rc1, out1, _ = run(tmp_path, capsys, "solve", QUADRIC_SYS, "--format", "machine")
    rc2, out2, _ = run(tmp_path, capsys, "solve", QUADRIC_SYS, "--format", "machine")
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["description"]["kind"] == "quadric"
    assert report["description"]["dimension"] == 3


def test_sample_seeded(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "sample", QUADRIC_SYS,
                     "--samples", "4", "--seed", "7", "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert len(report["samples"]) == 4
    rc2, out2, _ = run(tmp_path, capsys, "sample", QUADRIC_SYS,
                       "--samples", "4", "--seed", "7", "--format", "machine")
    assert out2 == out


def test_sample_empty_family_fails(tmp_path, capsys):
    doc = {"system": {"m": 2, "a_plus": 1, "a_minus": -1, "D": [[0, 0], [0, 0]],
                      "l_pp": [0, 0], "l_pm": [0, 0],
                      "l_mp": [0, 0], "l_mm": [0, 0]}}
    rc, out, _ = run(tmp_path, capsys, "sample", doc)
    assert rc == 1
    assert "nonempty-family" in out


def test_certify_quadric(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "certify", QUADRIC_SYS,
                     "--samples", "8", "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["component_count"] == 1
    assert report["expected_components"] == 1


def test_certify_quadric_with_small_a_plus(tmp_path, capsys):
    # a_plus = 1 is tiny against a_minus = 1e10 but not zero: {det B = 1e10}
    doc = json.loads(json.dumps(QUADRIC_SYS))
    doc["system"]["a_minus"] = 1e10
    rc, out, _ = run(tmp_path, capsys, "solve", doc, "--format", "machine")
    assert rc == 0
    assert json.loads(out)["description"]["kind"] == "quadric"
    rc, out, _ = run(tmp_path, capsys, "certify", doc,
                     "--samples", "4", "--format", "machine")
    assert rc == 0
    assert json.loads(out)["component_count"] == 1


def test_certify_ppzero_quadrant_is_one_component(tmp_path, capsys):
    # bug fixed: legs that interpolated the free row of B left the family,
    # and the corrector failed 5 joins, so this certified 2 components and
    # exited 1 (in about 10 s); the chart leg in (b, x) stays on it
    doc = {"system": {"m": 2, "a_plus": 1, "a_minus": 1, "D": [[1, 0], [0, -1]],
                      "l_pp": [0, 0], "l_pm": [1, -3], "l_mp": [-1, -1], "l_mm": [0, 0]}}
    outs = []
    for _ in range(2):
        rc, out, _ = run(tmp_path, capsys, "certify", doc,
                         "--samples", "6", "--seed", "245822", "--format", "machine")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["component_count"] == 1
    assert report["certificate"]["failures"] == []


def test_certify_one_sided_hypersurface_with_large_b(tmp_path, capsys):
    # bug fixed: with the Newton corrector, the join from the witness at
    # b = 20792 failed "below the minimal step size", so this certified
    # 2 components and exited 1; the graph legs over B reach it exactly
    doc = {"system": {"m": 2, "a_plus": 1, "a_minus": -2, "D": [[3, 3], [3, -2]],
                      "l_pp": [0, 0], "l_pm": [0, 0], "l_mp": [0, 0], "l_mm": [0, 0]}}
    rc, out, _ = run(tmp_path, capsys, "certify", doc,
                     "--samples", "6", "--seed", "99790", "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["component_count"] == 1 and report["certificate"]["failures"] == []
    assert max(w["b"] for w in report["certificate"]["witnesses"]) == pytest.approx(20792, abs=0.5)


@pytest.mark.parametrize("system", [
    {"m": 1, "l_pp": [0], "l_pm": [2], "l_mp": [1], "l_mm": [0]},
    QUADRIC_SYS["system"],
    {"m": 2, "a_plus": 1, "a_minus": 18, "D": [[0, 2], [-2, 2]],
     "l_pp": [2, 0], "l_pm": [0, 0], "l_mp": [0, 0], "l_mm": [4, 2]},
], ids=["hyperbola", "quadric", "mpzero-quadrant"])
def test_certify_machine_output_reproducible(tmp_path, capsys, system):
    outs = [run(tmp_path, capsys, "certify", {"system": system},
                "--samples", "6", "--seed", "7", "--format", "machine")[1] for _ in range(2)]
    assert outs[0] == outs[1] and json.loads(outs[0])["component_count"] == 1


def test_certify_empty(tmp_path, capsys):
    doc = {"system": {"m": 1, "l_pp": [1], "l_pm": [1],
                      "l_mp": [-1], "l_mm": [1]}}
    rc, out, _ = run(tmp_path, capsys, "certify", doc, "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["component_count"] == 0
    assert report["expected_components"] == 0


def test_certify_split_stratum(tmp_path, capsys):
    doc = {"system": {"m": 2, "a_plus": 0, "a_minus": 0, "D": [[1, 0], [0, 1]],
                      "l_pp": [0, 0], "l_pm": [0, 0],
                      "l_mp": [0, 0], "l_mm": [0, 0]}}
    rc, out, _ = run(tmp_path, capsys, "certify", doc,
                     "--samples", "6", "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["component_count"] == 2
    assert report["expected_components"] == 2


def test_solve_from_real_structure(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "solve", KOD, "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["description"]["kind"] == "quadrant"


def test_reconstruct_round_trip(tmp_path, capsys):
    doc = json.loads(json.dumps(KOD))
    doc["real_structure"]["L"] = [[2, 0], [0, 4]]
    doc["real_structure"]["d1"] = ["1/2", "1/3"]
    rc, out, _ = run(tmp_path, capsys, "reconstruct", doc)
    assert rc == 0
    assert "round_trip_exact: true" in out


def test_reconstruct_from_orbifold_block(tmp_path, capsys):
    doc = {
        "m": 1, "d": 1,
        "components": [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]],
        "orbifold": {
            "A1": [[-1, 0], [0, 1]],
            "A2": [[1, 0], [0, -1]],
            "d2": [0, 0],
            "generator_translations": [[2, 0], [0, 4]],
            "square_translation_y": [0, 0],
            "square_translation_x": [0, 0],
        },
    }
    rc, out, _ = run(tmp_path, capsys, "reconstruct", doc, "--format", "machine")
    assert rc == 0
    report = json.loads(out)
    assert report["real_structure"]["L"] == [["2", "0"], ["0", "4"]]


def test_reconstruct_inconsistent_orbifold(tmp_path, capsys):
    doc = {
        "m": 1, "d": 1,
        "components": [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]],
        "orbifold": {
            "A1": [[-1, 0], [0, 1]],
            "A2": [[1, 0], [0, -1]],
            "d2": [0, 0],
            "generator_translations": [[0, 0], [0, 0]],
            "square_translation_y": [0, 0],
            "square_translation_x": [1, 0],
        },
    }
    rc, out, _ = run(tmp_path, capsys, "reconstruct", doc)
    assert rc == 1
    assert "consistency" in out


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(QUADRIC_SYS))
    out_path = tmp_path / "report.json"
    rc = main(["solve", str(path), "--format", "machine", "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    rc, stdout, _ = run(tmp_path, capsys, "solve", QUADRIC_SYS, "--format", "machine")
    assert out_path.read_text() == stdout


def test_input_errors_exit_2(tmp_path, capsys):
    bad = json.loads(json.dumps(KOD))
    bad["components"][0][0][0] = 5
    rc, _, err = run(tmp_path, capsys, "check-bundle", bad)
    assert rc == 2
    assert "components[0][0][0]" in err

    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,,}')
    rc = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "broken.json:1:" in captured.err

    rc, _, err = run(tmp_path, capsys, "solve", {"m": 1, "d": 1})
    assert rc == 2
    assert "system" in err

    rc = main(["solve", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert rc == 2


def test_bad_numbers_exit_2(tmp_path, capsys):
    # each of these used to escape as a traceback with exit status 1
    for key, value in (("l_pp", ["one", 0]), ("a_plus", "nan"), ("a_minus", float("inf")),
                       ("l_mm", [True, 0]), ("D", [[0, "1/0"], [0, 0]])):
        doc = json.loads(json.dumps(QUADRIC_SYS))
        doc["system"][key] = value
        rc, _, err = run(tmp_path, capsys, "certify", doc, "--samples", "2")
        assert rc == 2, key
        assert "invalid system block" in err
    doc = json.loads(json.dumps(KOD))
    doc["real_structure"]["d1"] = [0, "1/0"]
    rc, _, err = run(tmp_path, capsys, "check-real", doc)
    assert rc == 2
    assert "invalid real structure" in err


@pytest.mark.parametrize(
    "command, doc, flags, rule",
    [
        # exit 1 with "connectedness" and component_count 0
        ("certify", QUADRIC_SYS, ("--samples", "0"), "--samples must be at least 1"),
        # exit 0 with requested: -2
        ("sample", QUADRIC_SYS, ("--samples", "-2"), "--samples must be at least 1"),
        # exit 3, ValueError from the random generator
        ("certify", QUADRIC_SYS, ("--seed", "-1"), "--seed must be non-negative"),
        # exit 1 with the prerequisites and D1-D6 failed
        ("check-real", KOD, ("--tol", "nan"), "--tol must be finite and >= 0"),
        ("check-real", KOD, ("--tol", "-1"), "--tol must be finite and >= 0"),
    ],
)
def test_out_of_range_options_exit_2(tmp_path, capsys, command, doc, flags, rule):
    rc, out, err = run(tmp_path, capsys, command, doc, *flags)
    assert rc == 2
    assert out == ""
    assert err == f"input error: {rule}\n"


def test_boolean_entries_exit_2(tmp_path, capsys):
    # JSON true used to pass as the integer 1
    doc = json.loads(json.dumps(KOD))
    doc["components"][0][0][1] = True
    rc, _, err = run(tmp_path, capsys, "check-bundle", doc)
    assert rc == 2
    assert "components[0][0][1] is not an integer" in err
    doc = json.loads(json.dumps(KOD))
    doc["real_structure"]["A2"][0][0] = True
    rc, _, err = run(tmp_path, capsys, "check-real", doc)
    assert rc == 2
    assert "A2[0][0] is not an integer" in err


def test_boolean_rational_entries_exit_2(tmp_path, capsys):
    # JSON true in d1 used to pass as the rational 1 (exit 0)
    doc = json.loads(json.dumps(KOD))
    doc["real_structure"]["d1"] = [True, "1/2"]
    rc, _, err = run(tmp_path, capsys, "check-real", doc)
    assert rc == 2
    assert "invalid real structure" in err and "boolean" in err
    doc = json.loads(json.dumps(KOD))
    doc["orbifold"] = {
        "A1": [[-1, 0], [0, 1]],
        "A2": [[1, 0], [0, -1]],
        "d2": [0, 0],
        "generator_translations": [[0, False], [0, 0]],
        "square_translation_y": [0, 0],
        "square_translation_x": [0, 0],
    }
    rc, _, err = run(tmp_path, capsys, "reconstruct", doc)
    assert rc == 2
    assert "invalid orbifold block" in err and "boolean" in err


def test_decompose_ill_conditioned_structure_exit_2(tmp_path, capsys):
    # an exact but ill-conditioned J2 used to escape as a ValueError traceback
    u = np.array([[1, 3000, 0, 0], [0, 1, 3000, 0], [0, 0, 1, 3000], [0, 0, 0, 1]], dtype=float)
    j0 = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    zero = [[0] * 4 for _ in range(4)]
    doc = {"m": 2, "d": 1, "components": [zero, zero], "J2": (np.linalg.inv(u) @ j0 @ u).tolist()}
    rc, _, err = run(tmp_path, capsys, "decompose", doc)
    assert rc == 2
    assert err.startswith("input error: cannot decompose")
    assert len(err.strip().splitlines()) == 1


def test_internal_error_exit_3(tmp_path, capsys, monkeypatch):
    def broken(doc, args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setitem(cli._HANDLERS, "solve", broken)
    rc, out, err = run(tmp_path, capsys, "solve", QUADRIC_SYS)
    assert rc == 3
    assert out == ""
    assert err == "internal error: ZeroDivisionError: float division by zero\n"


def test_reconstruct_short_generator_translations_exit_2(tmp_path, capsys):
    # one translation where m = 1 needs two used to raise IndexError
    doc = json.loads(json.dumps(KOD))
    doc["orbifold"] = {
        "A1": [[-1, 0], [0, 1]],
        "A2": [[1, 0], [0, -1]],
        "d2": [0, 0],
        "generator_translations": [[0, 0]],
        "square_translation_y": [0, 0],
        "square_translation_x": [0, 0],
    }
    rc, _, err = run(tmp_path, capsys, "reconstruct", doc)
    assert rc == 2
    assert "generator_translations must be 2 x 2" in err


def test_real_structure_sizes_exit_2(tmp_path, capsys):
    # a 4 x 4 A1 used to pass reconstruct (exit 0), a 4 x 4 A2 to crash it
    eye4 = [[int(i == j) for j in range(4)] for i in range(4)]
    wide_a1 = {"A1": eye4, "L": [[0, 0]] * 4, "d1": [0] * 4}
    wide_a2 = {"A2": eye4, "L": [[0] * 4] * 2, "d2": [0] * 4}
    for field, change in (("A1", wide_a1), ("A2", wide_a2)):
        doc = json.loads(json.dumps(KOD))
        doc["real_structure"].update(change)
        for command in ("check-real", "reconstruct", "solve"):
            rc, _, err = run(tmp_path, capsys, command, doc)
            assert rc == 2, (field, command)
            assert f"{field} must be 2 x 2 for m = 1, d = 1" in err
            assert len(err.strip().splitlines()) == 1
    doc = json.loads(json.dumps(KOD))
    doc["real_structure"]["d2"] = [[0], [0]]
    rc, _, err = run(tmp_path, capsys, "check-real", doc)
    assert rc == 2
    assert "d2 must be 2 for m = 1, d = 1" in err
    doc["real_structure"] = [1, 2]
    rc, _, err = run(tmp_path, capsys, "reconstruct", doc)
    assert rc == 2
    assert "section 'real_structure' must be a JSON object" in err


def test_orbifold_zero_denominator_exit_2(tmp_path, capsys):
    # "1/0" used to escape as a ZeroDivisionError traceback
    doc = json.loads(json.dumps(KOD))
    doc["orbifold"] = {
        "A1": [[-1, 0], [0, 1]],
        "A2": [[1, 0], [0, -1]],
        "d2": ["1/0", 0],
        "generator_translations": [[0, 0], [0, 0]],
        "square_translation_y": [0, 0],
        "square_translation_x": [0, 0],
    }
    rc, _, err = run(tmp_path, capsys, "reconstruct", doc)
    assert rc == 2
    assert "invalid orbifold block" in err


def test_decompose_computes_the_residual_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = complex_structures.riemann_residual
    monkeypatch.setattr(complex_structures, "riemann_residual",
                        lambda *args: calls.append(args) or real(*args))
    # the m = 2 form of tests/test_solver_explorer.py is not compatible with the standard J2
    incompatible = {"m": 2, "d": 1, "components": [
        [[0, 0, -1, -1], [0, 0, 0, -1], [1, 0, 0, 0], [1, 1, 0, 0]],
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]]}
    for doc, rc_want in ((KOD, 0), (incompatible, 1)):
        calls.clear()
        rc, out, _ = run(tmp_path, capsys, "decompose", doc, "--format", "machine")
        assert rc == rc_want and len(calls) == 1
        report = json.loads(out)
        assert report["compatibility_residual"] == real(*calls[0])
        assert ("failed" in report) == (rc == 1)


def test_check_real_refuses_lattice_coordinates_beyond_2_53(tmp_path, capsys):
    # bug fixed: the coordinate 5e299 was cast to a garbage int64 with a
    # RuntimeWarning on stderr, D4 reported ok and check-real exited 1
    doc = json.loads((Path(__file__).parents[1] / "demos" / "kodaira.json").read_text())
    doc["real_structure"]["L"][0][0] = "1e300"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(tmp_path, capsys, "check-real", doc)
    assert rc == 2 and out == "" and not caught
    assert err.startswith("input error:") and "2**53" in err and len(err.strip().splitlines()) == 1


def test_decompose_huge_structure_exit_2(tmp_path, capsys):
    # squaring 1e300 used to raise OverflowError
    doc = json.loads(json.dumps(KOD))
    doc["J2"] = [[0, 1e300], [-1e300, 0]]
    rc, _, err = run(tmp_path, capsys, "decompose", doc)
    assert rc == 2
    assert "invalid complex structure pair" in err
    doc["J2"] = [[0, float("nan")], [-1, 0]]
    rc, _, err = run(tmp_path, capsys, "decompose", doc)
    assert rc == 2
    assert "finite" in err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate", "anything.json"])
    assert info.value.code == 2


def test_wrong_pair_size_exit_2(tmp_path, capsys):
    doc = json.loads(json.dumps(KOD))
    doc["J1"] = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    rc, _, err = run(tmp_path, capsys, "decompose", doc)
    assert rc == 2
    assert "pair" in err


def _kod_with(components=KOD["components"], **real_structure):
    return {**KOD, "components": components,
            "real_structure": {**KOD["real_structure"], **real_structure}}


@pytest.mark.parametrize(
    "doc, readers",
    [
        # an exact integer of 10**400 has no float value
        (_kod_with(components=[[[0, 10**400], [-(10**400), 0]], [[0, 0], [0, 0]]]),
         ("check-real", "decompose", "solve", "sample", "certify")),
        (_kod_with(d1=[0, "1e400"]), ("check-real",)),
        (_kod_with(L=[["1e400", 0], [0, 0]]), ("check-real", "solve", "sample", "certify")),
        ({**KOD, "J2": [[0, -(10**400)], [1, 0]]}, ("check-real", "decompose")),
        ({**KOD, "system": {**QUADRIC_SYS["system"], "a_plus": 10**400}},
         ("solve", "sample", "certify")),
        # a_minus / a_plus = 10**400, the determinant of every solution
        ({**KOD, "system": {**QUADRIC_SYS["system"], "a_plus": "1/1" + "0" * 400}},
         ("solve", "sample", "certify")),
    ],
    ids=["components", "d1", "L", "J2", "system", "system-quotient"],
)
def test_entries_beyond_float_range_exit_2(tmp_path, capsys, doc, readers):
    # these used to escape as an OverflowError with exit 3
    for command in readers:
        rc, _, err = run(tmp_path, capsys, command, doc)
        assert rc == 2, command
        assert err.startswith("input error:") and len(err.strip().splitlines()) == 1
    # the exact commands read them exactly
    for command in ("check-bundle", "reconstruct"):
        assert run(tmp_path, capsys, command, doc)[0] == 0


def test_disagreeing_residual_routes_exit_2(tmp_path, capsys):
    # J2^2 = 0 here passes the J^2 test, whose bound is relative to
    # max |J|^2 = 1e32; the two residual routes then disagree (used to exit 3)
    doc = {**KOD, "J2": [[1e8, -1e16], [1, -1e8]]}
    for command in ("decompose", "check-real"):
        rc, _, err = run(tmp_path, capsys, command, doc)
        assert rc == 2, command
        assert "residual routes disagree" in err and len(err.strip().splitlines()) == 1


def test_each_structure_gets_one_frame(tmp_path, capsys, monkeypatch):
    built = []
    real_frame = complex_structures._Frame
    monkeypatch.setattr(complex_structures, "_Frame", lambda J: built.append(J) or real_frame(J))
    pair = cli._load_pair(KOD, cli._load_datum(KOD))
    assert built == [] and pair.orientation_ok  # a pair builds its frames on first use
    for command in ("check-real", "decompose"):
        built.clear()
        assert run(tmp_path, capsys, command, KOD)[0] == 0
        assert len(built) == 2, command


def test_check_real_refuses_a_non_involution_at_load(tmp_path, capsys):
    # so I1 and I2 hold in every report that check-real writes
    rc, out, err = run(tmp_path, capsys, "check-real", _kod_with(A2=[[1, 1], [0, 1]]))
    assert rc == 2 and out == ""
    assert err == "input error: invalid real structure: A2 squared is not the identity\n"


def _one_input_error(rc, out, err):
    return rc == 2 and out == "" and err.startswith("input error:") and err.count("\n") == 1


def test_unwritable_out_path_exit_2(tmp_path, capsys):
    # used to raise FileNotFoundError with exit 1
    out_path = tmp_path / "missing-dir" / "report.json"
    assert _one_input_error(*run(tmp_path, capsys, "check-bundle", KOD, "--out", str(out_path)))


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000, b'{"m": ' + b"1" * 5000 + b"}"],
    ids=["not-utf8", "nested-too-deeply", "integer-beyond-digit-limit"],
)
def test_unreadable_document_exit_2(tmp_path, capsys, data):
    # each used to escape with exit 1: UnicodeDecodeError, RecursionError,
    # and the ValueError json raises for an integer of more than 4300 digits
    path = tmp_path / "input.json"
    path.write_bytes(data)
    rc = main(["check-bundle", str(path)])
    assert _one_input_error(rc, *capsys.readouterr())


def test_unrenderable_report_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._HANDLERS, "solve", lambda doc, args: ({"value": object()}, []))
    rc, out, err = run(tmp_path, capsys, "solve", QUADRIC_SYS, "--format", "machine")
    assert rc == 3 and out == ""
    assert err.startswith("internal error: TypeError:") and err.count("\n") == 1


EMPTY_SYS = {"system": {**QUADRIC_SYS["system"], "a_minus": -1}}
SPLIT_SYS = {"system": {**QUADRIC_SYS["system"], "a_plus": 0, "a_minus": 0,
                        "D": [[1, 0], [0, 1]]}}
# not compatible with the standard J2
INCOMPATIBLE = {"m": 2, "d": 1, "components": [
    [[0, 0, -1, -1], [0, 0, 0, -1], [1, 0, 0, 0], [1, 1, 0, 0]],
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]]}
ORBIFOLD = {"A1": [[-1, 0], [0, 1]], "A2": [[1, 0], [0, -1]], "d2": ["1/2", 0],
            "generator_translations": [[2, "1/3"], [0, 4]],
            "square_translation_y": [0, 0], "square_translation_x": [1, 0]}

RENDER_CASES = {
    "check-bundle": ("check-bundle", KOD, ()),
    "check-bundle-definite": ("check-bundle", DEFINITE, ()),
    "check-real": ("check-real", KOD, ()),
    "check-real-failing": ("check-real", _kod_with(d2=["1/3", 0]), ()),
    "decompose": ("decompose", KOD, ()),
    "decompose-incompatible": ("decompose", INCOMPATIBLE, ()),
    "solve": ("solve", QUADRIC_SYS, ()),
    "solve-split": ("solve", SPLIT_SYS, ()),
    "solve-from-real-structure": ("solve", KOD, ()),
    "sample": ("sample", QUADRIC_SYS, ("--samples", "3")),
    "sample-empty": ("sample", EMPTY_SYS, ()),
    "certify": ("certify", SPLIT_SYS, ("--samples", "4")),
    "certify-empty": ("certify", EMPTY_SYS, ()),
    "reconstruct": ("reconstruct", _kod_with(L=[[2, 0], ["1/2", 4]], d1=["1/2", "1/3"]), ()),
    "reconstruct-orbifold": ("reconstruct", {**KOD, "orbifold": ORBIFOLD}, ()),
    "reconstruct-inconsistent": ("reconstruct", {**KOD, "orbifold": {
        **ORBIFOLD, "square_translation_x": [0, 0]}}, ()),
}


@pytest.mark.parametrize("command, doc, flags", RENDER_CASES.values(), ids=RENDER_CASES)
def test_reports_render_as_their_walked_conversion(command, doc, flags):
    args = cli._PARSER.parse_args([command, "input.json", *flags])
    report, failed = cli._HANDLERS[command](json.loads(json.dumps(doc)), args)
    report["ok"] = not failed
    json.dumps(report)  # no default: every value is already a JSON value
    walked = _jsonable(report)
    assert cli.render(report, "machine") == json.dumps(walked, sort_keys=True, indent=2) + "\n"
    assert cli.render(report, "human") == "\n".join(cli._human_lines(walked)) + "\n"


@pytest.mark.parametrize("system, flags, case, components", [
    ({"m": 2, "a_plus": 0, "a_minus": 0, "D": [[2.19, 0], [0, -1e4]], "l_pp": [1e-6, 0],
      "l_pm": [0, 0], "l_mp": [0, 0], "l_mm": [0, 0]}, ("--samples", "6", "--seed", "570"),
     "L.mpzero", 0),
    ({"m": 2, "a_plus": 0, "a_minus": 2.635, "D": [[0, 1e4], [1e-6, 0]], "l_pp": [0, 3],
      "l_pm": [0, 0], "l_mp": [0, 0], "l_mm": [2.335, 0]}, ("--seed", "633"), "L.mpzero", 1),
    ({"m": 2, "a_plus": 0, "a_minus": -97.91245074184081,
      "D": [[-59245.05273081512, 2.1023785444008034], [0, 0]], "l_pp": [0, 0],
      "l_pm": [-0.028305162999240584, 8.087443989392735],
      "l_mp": [-43659.10878745891, -87494.87335902329], "l_mm": [0, 0]},
     ("--samples", "3", "--seed", "425"), "L.ppzero", 1),
], ids=["forms-disagree", "band-division", "seed-425"])
def test_mixed_scale_systems_exit_0_or_1(tmp_path, capsys, system, flags, case, components):
    # bugs fixed: a tolerance relative to the largest entry, 1e4, called 1e-6
    # zero while the residuals and draws did not, and the first two exited 3
    # with "antiholomorphy forms disagree" and a ZeroDivisionError.  The
    # seed-425 system exited 3 with "antiholomorphy forms disagree": on an
    # ill-conditioned witness draw, a second antiholomorphy form, evaluated
    # only to be compared with the first, drifted apart from it
    rc, out, err = run(tmp_path, capsys, "certify", {"system": system}, *flags,
                       "--format", "machine")
    assert rc in (0, 1) and err == ""
    certificate = json.loads(out)["certificate"]
    assert (certificate["case"], certificate["component_count"]) == (case, components)


def test_system_entries_read_as_rationals(tmp_path, capsys):
    # 'p/q' strings as in a real_structure block, and 0.1, 0.3 as 1/10, 3/10
    system = {"m": 2, "a_plus": 1, "a_minus": 1, "D": [[0, 0], [0, 0]], "l_pp": [0.1, 0.3],
              "l_pm": [1, 3], "l_mp": [1, 3], "l_mm": [-0.1, -0.3]}
    strings = {**system, "l_pp": ["1/10", "3/10"], "l_mm": ["-1/10", "-3/10"]}
    outs = [run(tmp_path, capsys, "solve", {"system": s}, "--format", "machine")
            for s in (system, strings)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    desc = json.loads(outs[0][1])["description"]
    assert (desc["case"], desc["kind"]) == ("L.prop", "half-line")


def test_long_exponent_string_exit_2(tmp_path, capsys):
    # Fraction("1e10000000") alone takes seconds; "1e5000" is fast but
    # exceeds the 4300-digit limit all the same
    rc, _, err = run(tmp_path, capsys, "reconstruct", _kod_with(d1=["1e5000", 0]))
    assert rc == 2 and "larger exponent" in err
    rc, _, err = run(tmp_path, capsys, "solve",
                     {"system": {**QUADRIC_SYS["system"], "a_plus": "1e5000"}})
    assert rc == 2 and "invalid system block" in err


def test_human_format_prints_null(tmp_path, capsys):
    rc, out, _ = run(tmp_path, capsys, "check-real", KOD)
    assert rc == 0
    assert "failing_pair: null" in out and "failing_generator: null" in out
    assert "None" not in out
