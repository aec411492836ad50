"""Fingerprint every op of benchmark pools, one line per op.

    python3 tools/same_outputs.py WORKLOAD SEEDS OUT

SEEDS is a list such as 1,2,3 or a range such as 1-3.  The pools are
those of bench/run.py, built by its build_pool for the run length
`run_seconds` of BENCHMARK.json, and each op runs once through its run_op.
A line holds the seed, the op index, the class, the exit code and two
sha256 digests:

* for a command, of its stdout and of its stderr;
* for an eigensplit op, of every field of the returned EigenSplit (an
  array by its bytes, dtype, shape, strides and flags), and "-";
* for an op that raised, of the exception's type and message, and "-".

The script reads the package and the benchmark of the checkout it sits
in.  To compare two checkouts, run each checkout's copy and diff the two
files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402  bench/run.py
import torusbundles.cli  # noqa: E402

FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _field_parts(name, value):
    if isinstance(value, np.ndarray):
        flags = tuple(bool(value.flags[f]) for f in FLAGS)
        return [name, value.tobytes(), value.dtype.str, value.shape, value.strides, flags]
    return [name, value]


def fingerprint(op, main):
    """(exit code, first digest, second digest) of one run of op."""
    errs = []

    def capturing_main(argv):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                return main(argv)
        finally:
            errs.append(err.getvalue())

    rc, out = run.run_op(op, capturing_main)
    if isinstance(out, BaseException):
        return rc, digest([type(out).__name__, str(out)]), "-"
    if op.command == "eigensplit":
        parts = [p for f in dataclasses.fields(out) for p in _field_parts(f.name, getattr(out, f.name))]
        return rc, digest(parts), "-"
    return rc, digest([out]), digest([errs[-1]])


def parse_seeds(text):
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("seeds", type=parse_seeds)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    source = Path(torusbundles.cli.__file__).resolve().parent
    if source != (ROOT / "src" / "torusbundles").resolve():
        print(f"same_outputs: imported torusbundles from {source}", file=sys.stderr)
        return 2
    lines = []
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            ops, _ = run.build_pool(args.workload, seed, seconds, Path(tmp))
            for i, op in enumerate(ops):
                rc, first, second = fingerprint(op, torusbundles.cli.main)
                lines.append(f"{seed}\t{i}\t{op.cls}\t{rc}\t{first}\t{second}\n")
    args.out.write_text("".join(lines))
    print(f"same_outputs: {len(lines)} ops written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
