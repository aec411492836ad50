"""Connectedness certificates and the command-line driver.

connect() joins two verified solutions by a polyline that stays inside
the family; connectivity_certificate() samples the family and reports how
many classes the successful joins leave behind.  The same machinery backs
the `torusbundles certify` subcommand.
"""

import json
import pathlib
import tempfile

import numpy as np

from torusbundles import (
    ConstraintSystem,
    connect,
    connectivity_certificate,
)
from torusbundles.cli import main as cli_main

HERE = pathlib.Path(__file__).resolve().parent


def quadric_system():
    z = [0.0, 0.0]
    return ConstraintSystem.from_blocks(
        2, 1.0, 1.0, [[0.0, 0.0], [0.0, 0.0]], z, z, z, z
    )


def main():
    sys2 = quadric_system()

    # join two handpicked solutions of det B = 1, as packed (b, B) positions
    p = sys2.pack(1.0, np.eye(2))
    q = sys2.pack(2.0, np.array([[2.0, 1.0], [1.0, 1.0]]))
    path = connect(p, q, sys2)
    print("connect succeeded:", path.success)
    print("polyline vertices:", len(path.points))
    dets = [round(float(np.linalg.det(np.asarray(x[1:]).reshape(2, 2))), 9)
            for x in path.points]
    print("determinant along the path stays at:", sorted(set(dets)))

    cert = connectivity_certificate(sys2, samples=12, seed=0)
    print("certificate:", cert.component_count, "component(s),",
          len(cert.witnesses), "witnesses,", len(cert.failures), "failed joins")

    # the honest two-component family reports two classes
    stratum = ConstraintSystem.from_blocks(
        2, 0.0, 0.0, [[1.0, 0.0], [0.0, 1.0]],
        [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    )
    cert2 = connectivity_certificate(stratum, samples=8, seed=5)
    print("degenerate stratum certificate:", cert2.component_count, "components,",
          cert2.components_proven, "proven by the nappe invariant")
    print("a join across the nappes:", cert2.failures[0].message)

    # the CLI consumes one JSON document for every subcommand
    print("\n-- command line --")
    doc = HERE / "kodaira.json"
    for cmd in ("check-bundle", "certify"):
        print(f"$ torusbundles {cmd} {doc.name}")
        rc = cli_main([cmd, str(doc)])
        print(f"(exit {rc})\n")

    # machine format is stable JSON, reproducible byte for byte
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        rc = cli_main(["solve", str(doc), "--format", "machine", "--out", str(out)])
        report = json.loads(out.read_text())
        print("machine report keys:", sorted(report))
        print("family kind:", report["description"]["kind"], f"(exit {rc})")


if __name__ == "__main__":
    main()
