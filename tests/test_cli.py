"""Driver behavior: exit codes, report content, reproducible output."""

import json

import pytest

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
    for key, value in (("l_pp", ["one", 0]), ("a_plus", "nan"), ("a_minus", float("inf"))):
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
