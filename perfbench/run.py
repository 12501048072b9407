"""Benchmark of the modinv pipeline: four closed-loop workloads, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or "all" to run each of them in turn, each in
a process of its own.

Runs whole passes over the workload's jobs, in an order drawn from the
seed, while the next pass is expected to end within S seconds.  Every
job's output is checked against perfbench/reference.json; a job that
raises, differs from its digest, is missing or has no reference fails.  The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run alternates untraced and traced passes and reports per-layer ones.

Other modes:
    --selftest            reduced job lists; checks metric names, units
                          and that a corrupted reference digest fails
    --record              rewrite reference.json from the current source
    --thread-diagnostic   time commutant_basis(su2:16) in fresh processes
                          at the default BLAS thread count and pinned

Every time reported (set-up, passes, jobs, spans) is in reference
seconds from speed.RefClock: wall time with the host's changing CPU
speed divided out, measured by a kernel timed every 20 ms on the same
CPU.  Plain wall time swings by up to 1.8x between stretches of a second
on a shared host; the raw median pass time is printed beside it.

BLAS is pinned to one thread before numpy is imported: at the default
thread count some fresh processes run small LAPACK calls ~100x slower.
The package is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REF_KERNEL_S, RefClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"
# modinv, numpy and the sibling modules that import them are imported
# inside functions, after pin_threads() has set these.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8
DIAGNOSTIC_PROCS = 8
WORKLOADS = ("catalog_sweep", "large_modular", "dense_search", "cli_session")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def require_source() -> None:
    if not (SRC / "modinv" / "__init__.py").is_file():
        raise SystemExit(f"error: no modinv package under {SRC}")


def import_modinv() -> None:
    """Put src/ first on the path and check modinv comes from there."""
    require_source()
    sys.path.insert(0, str(SRC))
    import modinv

    if SRC not in Path(modinv.__file__).resolve().parents:
        raise SystemExit(f"error: modinv imported from {modinv.__file__}, not {SRC}")


def warm_setup(clock: RefClock) -> float:
    """Import modinv and run one build + enumeration; reference seconds."""
    t0 = time.perf_counter()
    import_modinv()
    from modinv import catalog, commutant, modular
    import workloads  # noqa: F401  (imports the rest of modinv)

    commutant.enumerate_invariants(modular.build(catalog.model_by_name("su2:4")))
    t1 = time.perf_counter()
    clock.settle()
    return clock.ref(t1) - clock.ref(t0)


def probe_setups() -> list:
    """Set-up times of SETUP_PROBES fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# passes

def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def run_pass(order, runner, ref_jobs, tracer=None) -> dict:
    """One timed pass over the jobs in `order`, checked against ref_jobs.
    Times are perf_counter readings, turned into durations by finish()."""
    import workloads

    span, failed, invariants = {}, [], 0
    if tracer is not None:
        tracer.begin_pass()
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        for job in order:
            if tracer is not None:
                tracer.job = job
            j0 = time.perf_counter()
            try:
                record = runner(job)
            except Exception:  # a failing job is counted, the pass goes on
                span[job] = (j0, time.perf_counter())
                traceback.print_exc()
                failed.append(job)
                continue
            span[job] = (j0, time.perf_counter())
            invariants += workloads.invariant_count(record)
            expected = ref_jobs.get(job)
            if expected is None or workloads.digest(record) != expected["digest"]:
                print(f"mismatch: {job}", file=sys.stderr)
                failed.append(job)
        t1 = time.perf_counter()
        cpu_s = time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.job = None
            tracer.uninstall()
    missing = [job for job in ref_jobs if job not in span]
    return {
        "span": (t0, t1),
        "cpu": cpu_s,
        "job_spans": span,
        "failed": failed + missing,
        "attempted": len(order) + len(missing),
        "invariants": invariants,
        "traced_pass": tracer.end_pass() if tracer is not None else None,
    }


def finish(p: dict, clock: RefClock, tracer) -> None:
    """Add a pass's durations in reference seconds: wall, per-job latency
    and, traced, its layer metrics; raw_wall is plain wall time."""
    t0, t1 = p["span"]
    p["raw_wall"] = t1 - t0
    p["wall"] = clock.ref(t1) - clock.ref(t0)
    p["latency"] = {job: clock.ref(b) - clock.ref(a) for job, (a, b) in p["job_spans"].items()}
    if p["traced_pass"] is not None:
        p["layers"] = tracer.layer_metrics(p["traced_pass"], p["wall"], clock.ref)


def run_workload(name, seed, seconds, trace, clock, jobs=None, ref=None) -> dict:
    """Passes while the next one is expected to end within `seconds` (and,
    traced, at least one untraced and one traced pass).  `jobs` and `ref`
    default to the workload's job list and its recorded reference; a
    reduced `jobs` list is checked against its own reference entries."""
    import workloads
    from spans import Tracer

    ref = ref if ref is not None else load_reference()[name]
    if jobs is None:
        jobs, ref_jobs = workloads.job_names(name), ref["jobs"]
    else:
        ref_jobs = {job: ref["jobs"][job] for job in jobs}
    runner = workloads.job_runner(name, str(WORK_DIR))
    tracer = Tracer() if trace else None
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(order, runner, ref_jobs, tracer if traced else None))
        passes[-1]["traced"] = traced
        # Stop before a pass that would, at the speed of the last one, end
        # after the deadline.
        took = time.perf_counter() - t0
        if (time.perf_counter() - start + took > seconds
                and len(passes) >= (2 if trace else 1)):
            break
    clock.settle()
    for p in passes:
        finish(p, clock, tracer)
    table = None
    if tracer is not None:
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(str(WORK_DIR / f"spans-{name}.jsonl"), clock.ref)
        last = [p for p in passes if p["traced"]][-1]
        table = tracer.function_table(last["traced_pass"], clock.ref)
    return {"passes": passes, "table": table, "ref": ref, "kernel_s": clock.kernel_s()}


# ---------------------------------------------------------------------------
# metrics

def end_to_end(run: dict, setup_s: float) -> dict:
    """wall_s is the median pass; job_p50_ms is the median over jobs of
    each job's median run.  Both in reference seconds."""
    passes = run["passes"]
    per_job = {}
    for p in passes:
        for job, t in p["latency"].items():
            per_job.setdefault(job, []).append(t)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "job_p50_ms": (1e3 * statistics.median(statistics.median(v) for v in per_job.values()),
                       "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: dict) -> dict:
    """Every metric from one traced pass, the one of median wall time (the
    lower of the two middle ones), so the layer times of a pass add up;
    the overhead is that pass's wall time minus the median untraced one."""
    from spans import LAYER_METRICS

    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    chosen = sorted(traced, key=lambda p: p["wall"])[(len(traced) - 1) // 2]
    overhead = chosen["wall"] - statistics.median_low(p["wall"] for p in plain)
    return {name: (overhead if name == "bench.trace_overhead_s" else chosen["layers"][name], unit)
            for name, unit in LAYER_METRICS}


def report(name: str, run: dict, metrics: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    passes = run["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    samples = sorted(t for p in passes for t in p["latency"].values())
    print(f"workload {name}: {len(passes)} passes, {attempted} jobs attempted, "
          f"{failed} failed, fail_frac {failed / attempted:.6f}")
    print(f"jobs per pass {passes[0]['attempted']}, invariants per pass "
          f"{passes[0]['invariants']} (reference: {len(run['ref']['jobs'])} jobs, "
          f"{run['ref']['invariants']} invariants)")
    if len(samples) >= 20:
        p95 = statistics.quantiles(samples, n=20)[-1]
        beyond = sum(t > p95 for t in samples)
        if beyond >= 10:
            print(f"job_p95_ms {1e3 * p95:.4f} ms ({len(samples)} samples, {beyond} beyond)")
    raw = statistics.median(p["raw_wall"] for p in passes)
    cpu = statistics.median(p["cpu"] for p in passes)
    print(f"job latency samples {len(samples)}, median pass: raw wall {raw:.4f} s, "
          f"cpu {cpu:.4f} s ({cpu / raw:.3f} of raw wall); reference clock kernel "
          f"median {1e3 * run['kernel_s']:.4f} ms (reference {1e3 * REF_KERNEL_S:.4f} ms)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    if run["table"] is not None:
        print("traced functions, last traced pass (calls, inclusive s, self s):")
        for fname, calls, incl, self_s in run["table"][:25]:
            print(f"  {fname:40s} {calls:8d} {incl:10.4f} {self_s:10.4f}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# other modes

def record_reference() -> None:
    import workloads

    out = {}
    for name in WORKLOADS:
        runner = workloads.job_runner(name, str(WORK_DIR))
        jobs, total = {}, 0
        for job in workloads.job_names(name):
            rec = runner(job)
            n = workloads.invariant_count(rec)
            total += n
            jobs[job] = {"digest": workloads.digest(rec), "invariants": n}
        out[name] = {"jobs": jobs, "invariants": total}
        print(f"{name}: {len(jobs)} jobs, {total} invariants")
    with open(REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


SELFTEST_JOBS = {
    "catalog_sweep": ["su2:4", "zn:5:2", "so8_1"],
    "large_modular": ["su2:28"],
    "dense_search": ["zn:6:1*zn:6:1"],
    "cli_session": ["graphs su2:16", "restrict so8_to_su3 sweep", "model show so8_1"],
}


def selftest(setup_s: float, clock: RefClock) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reference = load_reference()
    problems = []
    for name, jobs in SELFTEST_JOBS.items():
        for trace in (0, 1):
            run = run_workload(name, 1, 0, trace, clock, jobs=jobs)
            metrics = per_layer(run) if trace else end_to_end(run, setup_s)
            result = report(name, run, metrics)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != {want[trace]}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} failed jobs")
        bad = copy.deepcopy(reference[name])
        bad["jobs"][jobs[0]]["digest"] = "0" * 32
        run = run_workload(name, 1, 0, 0, clock, jobs=jobs, ref=bad)
        failed = [job for p in run["passes"] for job in p["failed"]]
        if failed != [jobs[0]]:
            problems.append(f"{name}: corrupted digest gave failures {failed}")
    for line in problems:
        print("selftest:", line)
    print("selftest", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


def basis_probe() -> None:
    import_modinv()
    from modinv import catalog, commutant, modular

    md = modular.build(catalog.su2_model(16))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        commutant.commutant_basis(md)
        times.append(1e3 * (time.perf_counter() - t0))
    print(json.dumps({"basis_ms": times, "blas_threads": environment()["blas_threads"]}))


def thread_diagnostic() -> None:
    """commutant_basis(su2:16) in DIAGNOSTIC_PROCS fresh processes at the
    default BLAS thread count and as many pinned to one thread.  A process
    is slow when its median call is over 5x the pinned median.  Reported,
    never gated."""
    rows = {}
    for mode in ("default", "pinned"):
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        if mode == "pinned":
            env.update({v: "1" for v in THREAD_VARS})
        rows[mode] = []
        for _ in range(DIAGNOSTIC_PROCS):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--basis-probe"],
                capture_output=True, text=True, timeout=120, check=True, env=env,
            )
            rows[mode].append(json.loads(out.stdout.splitlines()[-1]))
    base = statistics.median(statistics.median(r["basis_ms"]) for r in rows["pinned"])
    summary = {"pinned_median_ms": base}
    for mode, rs in rows.items():
        meds = [statistics.median(r["basis_ms"]) for r in rs]
        summary[mode] = {
            "blas_threads": rs[0]["blas_threads"],
            "median_ms": [round(m, 3) for m in meds],
            "slow_processes": sum(m > 5 * base for m in meds),
            "processes": len(rs),
        }
    print(json.dumps(summary, indent=1))


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record", action="store_true")
    p.add_argument("--thread-diagnostic", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--basis-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.basis_probe:  # thread settings come from the parent
        basis_probe()
        return 0
    if args.thread_diagnostic:
        thread_diagnostic()
        return 0
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, *rest]).returncode
                   for name in WORKLOADS)
    if not (args.workload or args.setup_probe or args.selftest or args.record):
        p.error("--workload is required")
    require_source()
    pin_threads()
    # Fresh set-up probes run before this process pins itself and starts
    # its clock's thread, so that neither shares their CPU.
    probes = probe_setups() if args.workload and not args.trace else []
    clock = RefClock()
    clock.start()
    try:
        own_setup = warm_setup(clock)
        if args.setup_probe:
            print(f"{own_setup!r}")
            return 0
        if args.selftest:
            return selftest(own_setup, clock)
        if args.record:
            record_reference()
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))
        run = run_workload(args.workload, args.seed, args.seconds, args.trace, clock)
    finally:
        clock.stop()
    if args.trace:
        metrics = per_layer(run)
    else:
        print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in probes + [own_setup])}")
        metrics = end_to_end(run, statistics.median(probes + [own_setup]))
    result = report(args.workload, run, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
