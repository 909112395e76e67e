#!/usr/bin/env python3
"""bmpoints benchmark: `compute` and library wall time per workload.

Run from the repository root:

    python3 perfbench/run.py --workload lex-seeded --seed 1 --seconds 15 --trace 0

--trace 0 times the user-facing calls with nothing patched and prints the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics (see perfbench/README.md).  Every output is
checked outside the timed region.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One thread for BLAS/OpenMP (never above nproc); set before numpy loads.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 1
# Never used while the benchmark or a change is tuned; a claimed gain must
# also hold on this seed.
HELD_OUT_SEED = 90210

SETUP_REPS = 7
# Library calls per compute call; they are short, so more of them steady
# run_s at little cost.
RUN_REPS = 2
# Median seconds of _calibrate() on the host the benchmark was defined on
# (KVM guest, 2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6).
CAL_REF = 0.0090
# compute_s_tail is the p75 of the compute samples; a run takes at least
# MIN_ROUNDS rounds (MIN_ROUNDS * INSTANCES = 45 calls), so at least ten
# samples lie beyond it.
MIN_ROUNDS = 9
# A run never measures longer than this many times --seconds.
MAX_STRETCH = 3


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# Calibration inputs: a dense degree-60 polynomial over F_p and a chain of
# small fractions, the same kinds of work as Polynomial.evaluate does.
CAL_P = 2147483647
CAL_TERMS = {(i, j): (i * 7919 + j * 104729 + 1) ** 3 % CAL_P
             for i in range(60) for j in range(60 - i)}
CAL_FRACTIONS = [Fraction(k % 199 - 99, k % 97 + 1) for k in range(1, 201)]


def _calibrate() -> float:
    """Seconds for a fixed mix of dict-driven modular evaluation, Fraction
    arithmetic and numpy work, which slows with the host as bmpoints does."""
    import numpy as np
    t0 = time.perf_counter()
    for x in range(3, 11):
        y = x * x + 1
        xp, yp = [1], [1]
        for _ in range(60):
            xp.append(xp[-1] * x % CAL_P)
            yp.append(yp[-1] * y % CAL_P)
        acc = 0
        for (i, j), c in CAL_TERMS.items():
            acc = (acc + c * (xp[i] * yp[j] % CAL_P)) % CAL_P
    f = Fraction(1)
    for q in CAL_FRACTIONS:
        f = f * q + 1
    a = np.arange(20000, dtype=np.int64)
    for _ in range(10):
        a = a * 3 % 1000003
    return time.perf_counter() - t0


class Calibrated:
    """Timed calls, each preceded by a calibration run.

    The host's speed drifts by tens of percent over tens of seconds, so a
    call's seconds are scaled by CAL_REF over the mean of the calibrations
    on either side of it: the times read as on the host at CAL_REF.
    """

    def __init__(self):
        self.cals: list = []
        self.calls: list = []  # (label, raw seconds or None)

    def time(self, label, fn, *args):
        self.cals.append(_calibrate())
        dt = fn(*args)
        self.calls.append((label, dt))
        return dt

    def close(self) -> None:
        self.cals.append(_calibrate())

    def factor(self, k: int) -> float:
        """Scale factor of the k-th call."""
        return 2 * CAL_REF / (self.cals[k] + self.cals[k + 1])

    def factors(self, label) -> list:
        """(raw seconds, scale factor) of the completed calls with label."""
        return [(dt, self.factor(k)) for k, (lab, dt) in enumerate(self.calls)
                if lab == label and dt is not None]

    def scaled(self, label) -> list:
        return [dt * f for dt, f in self.factors(label)]


def _setup_once(argv) -> float:
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
    # which would quantize the reading.
    subprocess.run(argv, check=True)
    return time.perf_counter() - t0


def _setup(workload: str, seed: int) -> Calibrated:
    """Time fresh interpreters importing bmpoints and writing the workload's
    point files.  They inherit this process's CPU, so the calibrations
    around them measure the core they run on."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import bmpoints, workloads; from pathlib import Path; "
            "workloads.WORKLOADS[sys.argv[3]].write(Path(sys.argv[4]), "
            "int(sys.argv[5]))")
    argv = [sys.executable, "-c", code, str(SRC), str(HERE), workload,
            str(OUT), str(seed)]
    _setup_once(argv)  # also writes the bytecode caches
    clock = Calibrated()
    for _ in range(SETUP_REPS):
        clock.time("setup", _setup_once, argv)
    clock.close()
    return clock


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _record(args, cpus) -> dict:
    import numpy
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": numba_ok,
            "nproc": len(cpus), "pinned_cpu": min(cpus),
            "blas_threads_cap": BLAS_THREADS, "cpu": _cpu_model(),
            "workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace}


def _digest(doc: dict) -> str:
    keep = {k: doc[k] for k in ("G", "N", "Q", "pointPermutation")}
    return hashlib.sha256(json.dumps(keep, sort_keys=True).encode()) \
        .hexdigest()


class Instance:
    """One point file of the workload, its call counts and first outputs."""

    def __init__(self, wl, path):
        from bmpoints import make_field, order_by_name
        from bmpoints.points import parse_point_file
        self.path = path
        self.argv = ["compute", "--field", wl.field, "--order", wl.order,
                     "--points", str(path), "--out", "json"]
        field = make_field(wl.field)
        self.order = order_by_name(wl.order)
        self.ps = parse_point_file(field, path.read_text())
        self.calls = 0
        self.bad = 0          # calls whose own output was wrong
        self.out = None       # stdout of the first compute call
        self.res = None       # result of the first library call


def _compute(inst, tracer=None, trace_id=0) -> float:
    """One timed `bmpoints compute` call; checks follow untimed."""
    from bmpoints.cli import run_cli
    buf = io.StringIO()
    call = lambda: run_cli(inst.argv)  # noqa: E731
    gc.collect()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = tracer.root(trace_id, call) if tracer else call()
    dt = time.perf_counter() - t0
    inst.calls += 1
    text = buf.getvalue()
    if inst.out is None:
        inst.out = text
    if rc != 0 or text != inst.out:
        inst.bad += 1
    return dt


def _library(inst, runner) -> float:
    """One timed library call on the prebuilt PointSet, without verify."""
    gc.collect()
    t0 = time.perf_counter()
    res = runner(inst.ps, inst.order)
    dt = time.perf_counter() - t0
    inst.calls += 1
    if inst.res is None:
        inst.res = res
    elif (res.G, res.N, res.Q, res.point_permutation) != (
            inst.res.G, inst.res.N, inst.res.Q, inst.res.point_permutation):
        inst.bad += 1
    return dt


def _guarded(fn, inst, *args):
    """Run one benchmark call; an exception counts the call as failed."""
    try:
        return fn(inst, *args)
    except Exception:  # the benchmark must finish and report the failure
        traceback.print_exc()
        inst.calls += 1
        inst.bad += 1
        return None


def _check(wl, inst, index, seed, digests) -> list:
    """Untimed correctness checks of an instance's first outputs; returns
    the failed checks by name."""
    from bmpoints import bm_run, oracle_dense
    from bmpoints.cli import result_to_json
    from bmpoints.poly import poly_json_terms
    if inst.out is None:
        return []
    try:
        doc = json.loads(inst.out)
    except ValueError:
        return ["compute printed no JSON"]
    failed = []
    if not doc.get("verify", {}).get("passed"):
        failed.append("verify did not pass")
    body = {k: v for k, v in doc.items() if k != "verify"}
    if inst.res is not None and result_to_json(inst.res) != body:
        failed.append("library result differs from compute JSON")
    ref = result_to_json(bm_run(inst.ps, inst.order))
    if ref["G"] != doc["G"] or sorted(ref["N"]) != sorted(doc["N"]):
        failed.append("(G, N) differs from bm_run")
    if seed == DEFAULT_SEED and digests[wl.name][index] != _digest(doc):
        failed.append("output digest differs from the recorded one")
    if wl.field == "rational":
        G, N = oracle_dense(inst.ps, inst.order)
        if ([poly_json_terms(g, inst.order) for g in G] != doc["G"]
                or sorted([i, j] for i, j in N) != sorted(doc["N"])):
            failed.append("(G, N) differs from oracle_dense")
    return failed


def _tail(values) -> float:
    return quantiles(values, n=4, method="inclusive")[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bmpoints" / "__init__.py").is_file():
        _fail(f"no bmpoints sources at {SRC}; run from a repository checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # One CPU for this process and its children: the calibrations then
    # measure the core the timed work runs on, and nothing migrates.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, str(SRC))

    import bmpoints
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS))
    wl = WORKLOADS[args.workload]
    setup = _setup(wl.name, args.seed)
    runner = getattr(bmpoints, wl.algo + "_run")
    insts = [Instance(wl, p) for p in wl.paths(OUT, args.seed)]
    print("record " + json.dumps(_record(args, cpus)))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    clock = Calibrated()
    rounds = []  # trace ids of each traced round
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_STRETCH * args.seconds or (
                elapsed >= args.seconds and n >= MIN_ROUNDS
                and (not tracer or n % 2 == 0)):
            break
        if tracer and n % 2:
            tracer.install()
            ids = []
            try:
                for inst in insts:
                    ids.append(len(clock.calls) + 1)
                    clock.time("traced", _guarded, _compute, inst, tracer,
                               ids[-1])
            finally:
                tracer.uninstall()
                rounds.append(ids)
        else:
            for inst in insts:
                clock.time("compute", _guarded, _compute, inst)
                for _ in range(0 if tracer else RUN_REPS):
                    clock.time("run", _guarded, _library, inst, runner)
        n += 1
    clock.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = json.loads((HERE / "digests.json").read_text())
    failed_checks = {}
    for k, inst in enumerate(insts):
        try:
            bad = _check(wl, inst, k, args.seed, digests)
        except Exception:  # a crash in a check is a failed check
            bad = ["check raised:\n" + traceback.format_exc()]
        if bad:
            failed_checks[inst.path.name] = bad
    attempted = sum(i.calls for i in insts)
    failed = sum(i.calls if i.path.name in failed_checks else i.bad
                 for i in insts)
    correct = failed == 0 and not failed_checks
    for name, bad in failed_checks.items():
        print(f"check failed on {name}: {'; '.join(bad)}", file=sys.stderr)

    compute_s = clock.scaled("compute")
    if not compute_s or (tracer and not rounds):
        _fail("no sample completed")
    raw = [dt for dt, _ in clock.factors("compute")]
    speed = [f for _, f in clock.factors("compute")]
    print(f"samples compute={len(compute_s)} run={len(clock.scaled('run'))} "
          f"traced={len(clock.scaled('traced'))} rounds={n}; raw compute "
          f"median={median(raw):.6f} s, median scale={median(speed):.4f}; "
          "raw setup " + " ".join(f"{t:.4f}" for t, _ in
                                  setup.factors("setup")))
    if tracer:
        scale = {tid: clock.factor(tid - 1) for ids in rounds for tid in ids}
        metrics = spans.round_metrics(spans.call_totals(tracer.spans),
                                      rounds, scale)
        base = median(compute_s)
        traced = median(clock.scaled("traced"))
        metrics["trace.overhead_frac"] = (traced - base) / base
        print(f"traced compute_s={traced:.6f} untraced={base:.6f}")
        tracer.write(OUT / f"spans-{wl.name}-s{args.seed}.jsonl")
        units = spans.UNITS
    else:
        metrics = {
            "compute_s": median(compute_s),
            "compute_s_tail": _tail(compute_s),
            "run_s": median(clock.scaled("run")),
            "setup_s": median(setup.scaled("setup")),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"compute_s": "s", "compute_s_tail": "s", "run_s": "s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"failed_frac={failed / max(attempted, 1):.6f} ratio "
              f"(failed {failed} of {attempted} calls); compute_s_tail is "
              f"p75 of {len(compute_s)} samples")
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
