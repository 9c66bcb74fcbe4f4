#!/usr/bin/env python3
"""Benchmark of the iswaves workbench.

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 36 --trace 0

Runs one workload (see `ops.py`) in this process as a closed loop: one
caller runs the workload's operations back to back, one pass after the
other, until `--seconds` have passed.  Every operation is an `iswaves` CLI
call made in process, and every output is checked (`ops.py`); a failed
operation is counted and timed, never retried or dropped.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of `BENCHMARK.json`, times in units of a reference
computation timed around every operation (`reference_s`); with `--trace 1`
passes alternate between untraced and traced (`tracing.py`), the traced
outputs must equal the untraced ones byte for byte, the counts must repeat
across traced passes, and the last line carries the per-layer metrics.  The lines before it give
the environment, each operation's time and, when traced, every per-layer
number including those not listed in `BENCHMARK.json`.  `--scale full` runs
the operations at the sizes of the test fixtures instead (see `ops.py`).

Outputs and the trace are written under `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("solvers", "evolve_checks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# a run starts no pass that would end past this many seconds (a run must
# end within 180 s)
RUN_LIMIT_S = 150.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    # must happen before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "full"), default="bench")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import hashlib

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "none"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or "none"
    digest = hashlib.sha256()
    for path in sorted((SRC / "iswaves").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu": cpu,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def call_op(op, ctx: dict, outdir: Path, tracer) -> tuple[float, str | None]:
    """Run one operation through the CLI; return its seconds and the reason
    it failed, or None."""
    import contextlib
    import io
    import shutil

    from iswaves.cli import main

    shutil.rmtree(outdir, ignore_errors=True)
    sink = io.StringIO()
    rec = tracer.open_span(f"op.{op.name}") if tracer is not None and tracer.active else None
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(op.argv(outdir))
    except Exception as exc:  # a crashed operation is a failed one, the run goes on
        rc, crash = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if rec is not None:
        tracer.close_span(rec, raised=crash is not None)
    if crash is not None:
        return seconds, crash
    try:
        return seconds, op.check(ctx, op, outdir, rc)
    except Exception as exc:  # unreadable output fails the operation
        return seconds, f"check raised {type(exc).__name__}: {exc}"


def reference_s() -> float:
    """Seconds of a fixed computation of the benchmark's own, a mix of what
    the operations spend their time on: numpy calls on small arrays, small
    FFTs and interpreter work.  The speed of this machine changes by up to
    1.7x for minutes at a time, for all code alike (CPU time tracks wall
    time, so it is not scheduling); times divided by the reference taken
    in the same pass do not follow it."""
    import numpy as np

    x = np.cos(np.linspace(0.0, 8.0, 1024))
    table = 1.0 / (1.0 + np.arange(513.0))
    t0 = time.perf_counter()
    for _ in range(2400):
        y = np.fft.irfft(table * np.fft.rfft(x), n=1024)
        acc = 0.0
        for v in y[:64].tolist():
            acc += v * v
    return time.perf_counter() - t0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(ops, ctx: dict, outroot: Path, tracer=None) -> dict:
    res = {"ops": {}, "pass_s": 0.0, "attempted": 0, "failures": [], "bytes_written": 0}
    refs = []
    totals = []
    rec = tracer.open_span("pass") if tracer is not None else None
    try:
        for op in ops:
            refs.append(reference_s())
            total = 0.0
            for _ in range(op.reps):
                if tracer is not None:
                    tracer.active = True
                seconds, why = call_op(op, ctx, outroot / op.name, tracer)
                if tracer is not None:
                    tracer.active = False
                total += seconds
                res["attempted"] += 1
                res["bytes_written"] += dir_bytes(outroot / op.name)
                if why is not None:
                    res["failures"].append(f"{op.name}: {why}")
            res["ops"][op.name] = total / op.reps
            res["pass_s"] += total
            totals.append(total)
        refs.append(reference_s())
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.close_span(rec)
    if rec is not None:
        res["span"] = rec[0]
    # each operation in units of the reference times taken just before and
    # just after it
    brackets = [0.5 * (a + b) for a, b in zip(refs, refs[1:])]
    res["ops_ref"] = {
        op.name: total / op.reps / ref for op, total, ref in zip(ops, totals, brackets)
    }
    res["pass_ref"] = sum(total / ref for total, ref in zip(totals, brackets))
    res["ref_s"] = statistics.fmean(refs)
    return res


def same_outputs(a: Path, b: Path) -> list[str]:
    """Files that differ between two output trees (meta.json holds a clock)."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = []
    for rel in sorted(names):
        if rel.name == "meta.json":
            continue
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file() and pa.read_bytes() == pb.read_bytes()):
            diff.append(str(rel))
    return diff


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(args):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import iswaves.cli  # noqa: F401  (the import is part of set-up)
    import ops as opsmod

    return opsmod.prepare(args.workload, args.seed, args.scale)


def time_setups(args) -> list[float]:
    """Wall time of fresh interpreters that import and prepare the workload."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def metric_specs(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


def loop(args, ops, ctx: dict, traced: bool):
    """Passes until --seconds have passed; alternate untraced/traced when traced."""
    import shutil

    from tracing import Tracer, pass_metrics

    outroot = OUT / args.workload
    shutil.rmtree(outroot, ignore_errors=True)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    plain, with_trace, selftest = [], [], []
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while True:
        use_trace = traced and k % 2 == 1
        side = "traced" if use_trace else "untraced"
        t0 = time.perf_counter()
        res = run_pass(ops, ctx, outroot / side, tracer if use_trace else None)
        longest = max(longest, time.perf_counter() - t0)
        if use_trace:
            res["counts"], res["times"], res["stalls"] = pass_metrics(tracer, res["span"])
            diff = same_outputs(outroot / "untraced", outroot / "traced")
            if diff:
                selftest.append(f"traced pass {k} wrote different {', '.join(diff)}")
            with_trace.append(res)
        else:
            plain.append(res)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= (2 if traced else 1) and (
            elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S
        ):
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.write(str(outroot / "trace.json"))
    return plain, with_trace, selftest


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    if not (SRC / "iswaves" / "__init__.py").is_file():
        print(f"perfbench: no iswaves sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_only:
        setup(args)
        return 0

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    setup_times = [] if args.trace else time_setups(args)
    t0 = time.perf_counter()
    ops, ctx = setup(args)
    print(f"in-process set-up {time.perf_counter() - t0:.3f} s")

    plain, with_trace, selftest = loop(args, ops, ctx, traced=bool(args.trace))
    passes = plain + with_trace
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"FAILED {f}")
    for msg in selftest:
        print(f"SELFTEST {msg}")

    ops_s = {op.name: statistics.median([p["ops"][op.name] for p in plain]) for op in ops}
    ops_ref = {op.name: statistics.median([p["ops_ref"][op.name] for p in plain]) for op in ops}
    for name in ops_s:
        print(f"op_s.{name} {ops_s[name]:.6f} s, op_ref.{name} {ops_ref[name]:.4f} ref")
    print(f"pass_s {statistics.median([p['pass_s'] for p in plain]):.6f} s")
    print(f"ref_s {statistics.median([p['ref_s'] for p in plain]):.6f} s")
    print(f"(medians of {len(plain)} untraced passes)")
    print(f"failed_frac {len(failures) / attempted:.6f} 1 ({len(failures)} of {attempted})")

    if not args.trace:
        import resource

        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_ref": (statistics.median([p["pass_ref"] for p in plain]), "ref"),
            "op_ref.geomean": (
                math.exp(statistics.fmean(math.log(v) for v in ops_ref.values())),
                "ref",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"setup_s samples {[round(t, 4) for t in setup_times]}")
        samples = [(round(p["pass_s"], 3), round(p["ref_s"], 4)) for p in plain]
        print(f"pass_s, ref_s samples {samples}")
        specs = metric_specs("end_to_end")
    else:
        # counts are those of the first traced pass and must repeat in the
        # others; times are medians over the traced passes
        first = with_trace[0]
        counts_repeat = all(
            (p["counts"], p["stalls"]) == (first["counts"], first["stalls"]) for p in with_trace
        )
        layers = dict(first["counts"])
        for name in first["times"]:
            layers[name] = statistics.median([p["times"][name] for p in with_trace])
        traced = statistics.median([p["pass_ref"] for p in with_trace])
        untraced = statistics.median([p["pass_ref"] for p in plain])
        layers["trace.overhead_frac"] = traced / untraced - 1.0
        layers["cli.io.bytes_written"] = first["bytes_written"]
        for name, v in sorted(layers.items()):
            print(f"layer {name} {v:.9g}")
        for op, (exits, calls, execs) in first["stalls"].items():
            print(f"stalls {op}: {exits // execs} of {calls // execs} lgmres calls at maxiter")
        if not counts_repeat:
            selftest.append("work counts differ between traced passes")
            print("SELFTEST work counts differ between traced passes")
        specs = metric_specs("per_layer")
        values = {s["name"]: (layers[s["name"]], s["unit"]) for s in specs}

    for s in specs:
        v, unit = values[s["name"]]
        print(f"{s['name']} {v:.9g} {unit}")
    result = {
        "correct": not failures and not selftest,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {s["name"]: {"value": values[s["name"]][0], "unit": s["unit"]} for s in specs},
    }
    (OUT / args.workload / "result.json").write_text(
        json.dumps(
            {"env": env, "ops_s": ops_s, "ops_ref": ops_ref, "failures": failures, **result},
            indent=2,
        ) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
