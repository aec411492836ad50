"""Each output check accepts a real output and rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import pools  # noqa: E402
from run import _eigensplit_call  # noqa: E402
from torusbundles.cli import main  # noqa: E402


def cli(tmp_path, command, doc, *args):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([command, str(path), "--format", "machine", *args])
    return rc, json.loads(buf.getvalue())


QUADRIC = {"system": {"m": 2, "a_plus": 1, "a_minus": 2, "D": [[0, 0], [0, 0]],
                      "l_pp": [0, 0], "l_pm": [0, 0], "l_mp": [0, 0], "l_mm": [0, 0]}}
SPLIT = {"system": {"m": 2, "a_plus": 0, "a_minus": 0, "D": [[1, 0], [0, 1]],
                    "l_pp": [0, 0], "l_pm": [0, 0], "l_mp": [0, 0], "l_mm": [0, 0]}}
FAMILY = {"components": 1, "exit": 0}


@pytest.fixture(scope="module")
def quadric(tmp_path_factory):
    return cli(tmp_path_factory.mktemp("q"), "certify", QUADRIC, "--samples", "4")


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    # seed 3 puts the witnesses on both nappes, two of them joined
    return cli(tmp_path_factory.mktemp("s"), "certify", SPLIT, "--samples", "3", "--seed", "3")


def test_certificate_accepts_real_output(quadric, split):
    assert checks.check_certificate(QUADRIC, *quadric, FAMILY) == []
    assert checks.check_certificate(SPLIT, *split, {"split": True}) == []
    assert split[1]["component_count"] == 2


def test_certificate_rejects_vertex_off_the_surface(quadric):
    rc, report = copy.deepcopy(quadric)
    report["certificate"]["paths"][0]["points"][1][2] += 1e-3
    assert any("equations off" in p for p in checks.check_certificate(QUADRIC, rc, report, FAMILY))


def test_certificate_rejects_moved_witness(quadric):
    rc, report = copy.deepcopy(quadric)
    report["certificate"]["witnesses"][0]["b"] = -report["certificate"]["witnesses"][0]["b"]
    assert any("not positive" in p for p in checks.check_certificate(QUADRIC, rc, report, FAMILY))


def test_certificate_rejects_wrong_count(quadric):
    rc, report = copy.deepcopy(quadric)
    report["certificate"]["component_count"] = report["component_count"] = 2
    assert any("components reported" in p for p in checks.check_certificate(QUADRIC, rc, report, FAMILY))


def test_certificate_rejects_chord_through_det_zero(split):
    rc, report = copy.deepcopy(split)
    path = report["certificate"]["paths"][0]
    # -B lies on the other nappe: same equations, but the chord crosses det B = 0
    first = path["points"][0]
    path["points"].insert(1, [first[0]] + [-x for x in first[1:]])
    problems = checks.check_certificate(SPLIT, rc, report, {"split": True})
    assert any("leaves det B > 0" in p for p in problems)
    assert any("crosses between the nappes" in p for p in problems)


def test_split_rejects_count_that_ignores_the_nappes(split):
    rc, report = copy.deepcopy(split)
    report["certificate"]["component_count"] = report["component_count"] = 1
    problems = checks.check_certificate(SPLIT, rc, report, {"split": True})
    assert any("nappes" in p for p in problems)
    assert checks.check_certificate(SPLIT, 1, split[1], {"split": True}) != []


def test_bundle_rejects_flipped_verdicts(tmp_path):
    rng = random.Random(0)
    for m in (2, 3, 4):
        doc = pools.bundle_doc(rng, m)
        rc, report = cli(tmp_path, "check-bundle", doc)
        assert checks.check_bundle(doc, rc, report, {}) == []
        for key in ("nondegenerate", "pfaffian-reality"):
            bad = dict(report)
            bad[key] = not bad[key]
            assert checks.check_bundle(doc, rc, bad, {}) != []


def test_check_real_rejects_wrong_labels(tmp_path):
    rng = random.Random(1)
    for m in (1, 2):
        good = pools.real_structure_case(rng, m)
        rc, report = cli(tmp_path, "check-real", good)
        assert checks.check_real(good, rc, report, {"breaks": []}) == []
        assert checks.check_real(good, 1, dict(report, failed=["I5"]), {"breaks": []}) != []
        broken = pools.real_structure_case(rng, m, "I6")
        rc, report = cli(tmp_path, "check-real", broken)
        assert checks.check_real(broken, rc, report, {"breaks": ["I6"]}) == []
        relabelled = dict(report, failed=["I5" if x == "I6" else x for x in report["failed"]])
        assert checks.check_real(broken, rc, relabelled, {"breaks": ["I6"]}) != []


def test_reconstruct_rejects_changed_coupling(tmp_path):
    doc = pools.reconstruct_doc(random.Random(2), 2)
    rc, report = cli(tmp_path, "reconstruct", doc)
    assert checks.check_reconstruct(doc, rc, report, {}) == []
    report["real_structure"]["L"][0][0] = "1/1000"
    assert checks.check_reconstruct(doc, rc, report, {}) != []


def test_decompose_rejects_changed_piece(tmp_path):
    for m in (1, 2):
        doc = pools.decompose_doc(random.Random(3), m)
        rc, report = cli(tmp_path, "decompose", doc)
        assert checks.check_decompose(doc, rc, report, {}) == []
        report["B_doubleprime"]["re"][0][0][0] += 1e-6
        assert checks.check_decompose(doc, rc, report, {}) != []


def test_eigensplit_rejects_unsaturated_basis():
    for frame in pools.UNSATURATED_FRAMES:
        doc = pools.eigensplit_case(frame)
        assert any("index" in p for p in checks.check_eigensplit(doc, _eigensplit_call(doc)()))
    doc = pools.seeded_eigensplit_case(random.Random(4))
    split = _eigensplit_call(doc)()
    assert checks.check_eigensplit(doc, split) == []
    split.basis_V_plus = 2 * split.basis_V_plus
    assert any("index 4" in p for p in checks.check_eigensplit(doc, split))


def test_lattice_index():
    assert checks.lattice_index([[1, 0], [0, 1], [5, 7]]) == 1
    assert checks.lattice_index([[3, 0], [0, 1], [0, 0]]) == 3
    assert checks.lattice_index(np.array([[2], [4]]).tolist()) == 2
