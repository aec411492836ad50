"""End-to-end benchmark of the torusbundles command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every op is one torusbundles.cli.main
call on one JSON document with --format machine, in this process; the
eigensplit class of exact-checks calls real_structures.eigensplit
directly.  A run builds a seeded pool of whole rounds (see pools.py),
times one warm-up op per class, then times the pool in whole passes with
no time cut-off.  --seconds sets how many rounds and passes the run does,
from a fixed nominal rate per workload, so the amount of work depends
only on the arguments.  Outputs are checked after the timed region.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics (from wrappers installed around the package, see tracing.py) with
--trace 1.  A summary per class of op goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pools  # noqa: E402

# (round maker, nominal rounds per second, most distinct rounds in a pool)
WORKLOADS = {
    "certify-families": (pools.certify_round, 2.0, None),
    "certify-split": (pools.certify_split_round, 1.6, None),
    "exact-checks": (pools.exact_round, 4.5, 10),
}
SETUP_STARTS = (4, 4, 4)  # fresh starts before the pool, before and after the timed loop
IMPORT_STARTS = 5
START_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import torusbundles.cli"


def fresh_start_seconds(extra=()):
    """Wall time of a new interpreter from start through import torusbundles.cli."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", START_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return time.perf_counter() - t0, proc.stderr


def import_times_ms():
    """Cumulative import times of torusbundles and numpy from -X importtime."""
    found = {"torusbundles": [], "numpy": []}
    for _ in range(IMPORT_STARTS):
        _, err = fresh_start_seconds(("-X", "importtime"))
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in found:
                found[parts[2]].append(int(parts[1]) / 1000.0)
    return {k: statistics.median(v) for k, v in found.items()}


def build_pool(workload, seed, seconds, run_dir):
    make_round, rate, most = WORKLOADS[workload]
    total = max(1, round(seconds * rate))
    distinct = min(total, most) if most else total
    passes = max(1, round(total / distinct))
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for index in range(distinct):
        ops.extend(make_round(rng, index))
    if workload == "certify-split":
        for i, op in enumerate(ops):
            op.args = ("--samples", str(pools.SPLIT_SAMPLES), "--seed",
                       str(_straddling_seed(op.doc, rng, run_dir / f"probe-{i}.json")))
    for i, op in enumerate(ops):
        if op.cls == "L0.Dnz.hypersurface":
            op.args = ("--samples", str(pools.CERTIFY_SAMPLES), "--seed",
                       str(_bounded_seed(op, rng, run_dir / f"probe-{i}.json")))
    for i, op in enumerate(ops):
        op.path = run_dir / f"op-{i}.json"
        op.path.write_text(json.dumps(op.doc))
        if op.command == "eigensplit":
            op.call = _eigensplit_call(op.doc)
    return ops, passes


def _samples(path, count, seed):
    """The witnesses certify --samples count --seed seed starts from."""
    from torusbundles.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["sample", str(path), "--samples", str(count),
              "--seed", str(seed), "--format", "machine"])
    return json.loads(buf.getvalue())["samples"]


def _straddling_seed(doc, rng, path):
    """A sampler seed whose witnesses lie on both nappes of the split stratum.

    The class measured is the certificate that really splits: its joins
    across the nappes fail.  Seeds whose witnesses all fall on one nappe
    would make a different, far cheaper op.
    """
    path.write_text(json.dumps(doc))
    frame = checks.nappe_frame(doc["system"]["D"])
    while True:
        seed = rng.randrange(10**6)
        samples = _samples(path, pools.SPLIT_SAMPLES, seed)
        signs = {checks.nappe_sign(frame, s["B"]) for s in samples}
        if len(samples) == pools.SPLIT_SAMPLES and len(signs) == 2:
            return seed


def _bounded_seed(op, rng, path):
    """The op's sampler seed, or the first seed drawn after it whose
    witnesses all have b <= pools.WITNESS_B_MAX.

    On the hypersurface b = (a_plus det B - a_minus) / b'(B), so a draw
    with b'(B) near 0 gives a witness far out on the graph, and joins
    from b of about 2e4 on fail (see CHANGES.md); such seeds are left out.
    """
    path.write_text(json.dumps(op.doc))
    seed = int(op.args[op.args.index("--seed") + 1])
    while max(s["b"] for s in _samples(path, pools.CERTIFY_SAMPLES, seed)) > pools.WITNESS_B_MAX:
        seed = rng.randrange(10**6)
    return seed


def _eigensplit_call(doc):
    from torusbundles import real_structures
    from torusbundles.lattice_core import BundleDatum

    rs = doc["real_structure"]
    datum = BundleDatum(m=doc["m"], d=doc["d"],
                        components=tuple(tuple(tuple(r) for r in c) for c in doc["components"]))
    data = real_structures.RealStructureData(
        A1=tuple(map(tuple, rs["A1"])), A2=tuple(map(tuple, rs["A2"])),
        L=tuple(map(tuple, rs["L"])), d1=tuple(rs["d1"]), d2=tuple(rs["d2"]))
    # looked up at call time, so a traced run calls the wrapped function
    return lambda: real_structures.eigensplit(datum, data)


def run_op(op, main):
    """(exit status, output) of one op; exceptions are returned, not raised."""
    if op.command == "eigensplit":
        try:
            return 0, op.call()
        except Exception as exc:  # a crash is an op outcome, reported by the checks
            return None, exc
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([op.command, str(op.path), "--format", "machine", *op.args])
    except (Exception, SystemExit) as exc:
        return None, exc
    return rc, out.getvalue()


CHECKS = {
    "certify": checks.check_certificate,
    "check-bundle": checks.check_bundle,
    "check-real": checks.check_real,
    "reconstruct": checks.check_reconstruct,
    "decompose": checks.check_decompose,
}


def check_op(op, rc, out):
    if rc is None:
        return [f"raised {type(out).__name__}: {out}"]
    if op.command == "eigensplit":
        return checks.check_eigensplit(op.doc, out)
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return [f"output is not JSON (exit {rc})"]
    return CHECKS[op.command](op.doc, rc, report, op.expect)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str) or a is None or b is None:
        return a == b
    names = ("basis_V_plus", "basis_V_minus", "basis_U_plus", "basis_U_minus")
    return all((getattr(a, n) == getattr(b, n)).all() for n in names)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torusbundles" / "cli.py").is_file():
        print(f"bench: no package source at {SRC / 'torusbundles'}", file=sys.stderr)
        return 2
    # the build: byte-compile the package, as an installed copy has it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "torusbundles")],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    sys.path.insert(0, str(SRC))
    import torusbundles.cli

    if Path(torusbundles.cli.__file__).resolve().parent != (SRC / "torusbundles").resolve():
        print(f"bench: imported torusbundles from {torusbundles.cli.__file__}", file=sys.stderr)
        return 2

    fresh_start_seconds()  # untimed: lets the OS cache the files once
    starts = []

    def time_starts(count):
        # the machine's speed drifts over seconds; spreading the starts
        # over the run keeps one slow spell from setting the median
        if not args.trace:
            starts.extend(fresh_start_seconds()[0] for _ in range(count))

    time_starts(SETUP_STARTS[0])
    if args.trace:
        import_ms = import_times_ms()

    run_dir = RUNS / f"{args.workload}-{args.seed}-{int(time.time() * 1e6)}"
    run_dir.mkdir(parents=True)
    try:
        ops, passes = build_pool(args.workload, args.seed, args.seconds, run_dir)
        cli_main = torusbundles.cli.main
        seen = set()
        for op in ops:  # warm-up: one untimed op per class
            if op.cls not in seen:
                seen.add(op.cls)
                run_op(op, cli_main)

        time_starts(SETUP_STARTS[1])
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            cli_main = torusbundles.cli.main
        durations = []
        outputs = [None] * len(ops)
        repeats_differ = 0
        t_start = time.perf_counter()
        for p in range(passes):
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                result = run_op(op, cli_main)
                durations.append(time.perf_counter() - t0)
                if p == 0:
                    outputs[i] = result
                elif not _same(result[1], outputs[i][1]) or result[0] != outputs[i][0]:
                    repeats_differ += 1
        wall = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        time_starts(SETUP_STARTS[2])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # checks, after the timed region and after the memory reading
    t_check = time.perf_counter()
    correct = repeats_differ == 0
    if repeats_differ:
        print(f"bench: {repeats_differ} repeated ops gave different outputs", file=sys.stderr)
    failed_per_pass = 0
    by_class = {}
    for i, op in enumerate(ops):
        problems = check_op(op, *outputs[i])
        if problems:
            failed_per_pass += 1
            if not op.expect.get("fault"):
                correct = False
                print(f"bench: {op.cls} op {i} is wrong: {'; '.join(problems[:3])}", file=sys.stderr)
        by_class.setdefault(op.cls, []).extend(durations[i::len(ops)])
    attempted = len(durations)
    failed = failed_per_pass * passes

    for cls, times in by_class.items():
        print(f"  {cls:28s} {len(times):5d} ops  median {1000 * statistics.median(times):9.2f} ms",
              file=sys.stderr)
    if args.trace:
        from tracing import per_layer_metrics

        metrics = per_layer_metrics(tracer, attempted, import_ms)
        trace_file = RUNS / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "calls": dict(tracer.calls), "total_s": dict(tracer.total),
            "self_s": dict(tracer.self_time), "ops": attempted, "wall_s": wall,
        }, indent=1, sort_keys=True))
    else:
        metrics = {
            "ops_per_s": (attempted / wall, "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(durations), "ms"),
            "setup_s": (statistics.median(starts), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"  {attempted} ops in {passes} passes, {wall:.2f} s timed, "
          f"checks {time.perf_counter() - t_check:.2f} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
