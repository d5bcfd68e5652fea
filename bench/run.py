"""semiphi benchmark: closed-loop workloads with an independent outcome check.

One client sends the next request only after the previous outcome has been
returned and checked, serving the workload's request pool round after
round.  With ``--trace 0`` the run reports the end-to-end metrics, rescaled
to a nominal host speed by a probe timed beside every request (see
``speed``); with ``--trace 1`` each request runs once untraced and once
traced (over whole request cycles, so counts per request repeat exactly)
and the run reports per-layer counts and self times plus the tracing
overhead.

Usage:
    python3 bench/run.py --workload extend_wide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # table of all three

The last line of standard output is the JSON result; a human-readable
summary goes to standard error, and a run record (machine, versions,
thread settings, seed, request counts and metrics) to ``bench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; child processes inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("extend_wide", "decide_narrow", "cli_files")
SETUP_REPEATS = 3
MIN_REQUESTS = 100  # so that at least ten latency samples lie beyond p90
LOCAL_WINDOW_S = 1.0  # host speed is averaged this far either side of a request
HARD_STOP_S = 120.0  # checked between rounds; keeps every run inside 180 s
UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_library() -> float:
    """Import numpy and semiphi from this checkout's ``src``; seconds taken."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import semiphi

    elapsed = time.perf_counter() - start
    if not os.path.abspath(semiphi.__file__).startswith(SRC + os.sep):
        raise ImportError(f"semiphi imported from {semiphi.__file__}, not from {SRC}")
    return elapsed


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def run_record(**fields) -> dict:
    """Machine, versions and thread settings, so that numbers from different
    set-ups are never compared by mistake; ``fields`` describe the run."""
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        **fields,
    }


def _peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest child.
    who = resource.RUSAGE_CHILDREN if workload == "cli_files" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _pin_cpu() -> int | None:
    """Keep this process, and the children it starts, on one CPU, so that
    the probe samples the same CPU the requests run on."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def setup(workload: str, seed: int, probe):
    """Build the request pool and serve one warm-up request,
    ``SETUP_REPEATS`` times, sampling the host-speed probe after each;
    returns the last pool and the median time."""
    import workloads

    build = workloads.WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        reqs = build(seed, OUT_DIR)
        _serve(reqs[0], None, [])
        times.append(time.perf_counter() - start)
        probe.sample(times[-1])
    return reqs, statistics.median(times)


def _serve(req, tracer, errors, starts=None) -> tuple[float, bool]:
    """One request: returns (seconds, ok).  Any exception fails the request
    and the run goes on; the first few are kept for the record."""
    start = time.perf_counter()
    if starts is not None:
        starts.append(start)
    try:
        req.call(tracer)
        ok = True
    except Exception as exc:
        ok = False
        if len(errors) < 10:
            errors.append(f"{req.kind}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, ok


def measure(reqs, seconds: float, t_start: float, probe) -> dict:
    """Closed loop over the pool, in whole rounds, for ``seconds`` (and at
    least ``MIN_REQUESTS``), with the host-speed probe sampled after every
    request.

    Whole rounds keep every request of the pool equally often among the
    latency samples, so the percentiles do not move with where a run
    happens to stop.  Each latency is rescaled by the probe's factor over
    ``LOCAL_WINDOW_S`` around it (see ``speed``), so the figures read as on
    a host of the nominal speed.  The wall-clock figures are kept in the
    run record under ``wall``.
    """
    latencies, starts, failed, errors = [], [], 0, []
    deadline = time.perf_counter() + seconds
    i = rounds = 0
    while True:
        now = time.perf_counter()
        if now >= deadline and i >= MIN_REQUESTS or now - t_start >= HARD_STOP_S:
            break
        for req in reqs:
            dt, ok = _serve(req, None, errors, starts)
            probe.sample(dt)
            latencies.append(dt)
            failed += not ok
            i += 1
        rounds += 1
    scale = probe.scale()
    local = probe.local_scales([t + dt / 2 for t, dt in zip(starts, latencies)], LOCAL_WINDOW_S)
    scaled = [dt * f for dt, f in zip(latencies, local)]
    cuts = statistics.quantiles(scaled, n=10, method="inclusive")
    wall_cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    wall = {
        "throughput_rps": (i - failed) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * wall_cuts[8],
    }
    return {
        "attempted": i,
        "failed": failed,
        "errors": errors,
        "throughput_rps": (i - failed) / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_p90_ms": 1e3 * cuts[8],
        "wall": wall,
        "speed_scale": scale,
        "probe_mean_ms": 1e3 * probe.mean_s(),
        "probe_runs": probe.runs,
        "rounds": rounds,
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(x > cuts[8] for x in scaled),
    }


def measure_traced(reqs, seconds: float, t_start: float, spans_path: str) -> dict:
    """Paired untraced/traced runs over whole request cycles."""
    import tracing

    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    failed, errors, n = 0, [], 0
    deadline = time.perf_counter() + seconds
    while n == 0 or time.perf_counter() < deadline and time.perf_counter() - t_start < HARD_STOP_S:
        for req in reqs:
            if time.perf_counter() - t_start >= HARD_STOP_S:
                break
            dt, ok = _serve(req, None, errors)
            plain_s += dt
            failed += not ok
            tracer.install()
            tracer.begin(n)
            try:
                dt, ok = _serve(req, tracer, errors)
            finally:
                tracer.end()
                tracer.uninstall()
            traced_s += dt
            failed += not ok
            n += 1
    metrics = tracing.per_layer(tracer.spans, n)
    metrics["cli.import_ms"] = tracer.child_import_ms / n
    metrics["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    stages = tracing.stage_table(tracer.spans)
    tracer.write(spans_path)
    return {
        "attempted": 2 * n,
        "failed": failed,
        "errors": errors,
        "per_layer": metrics,
        "engine_stages_s": stages,
        "spans": len(tracer.spans),
    }


def run_one(args) -> int:
    t_start = time.perf_counter()
    cpu = _pin_cpu()
    try:
        import_s = _import_library()
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    os.makedirs(OUT_DIR, exist_ok=True)
    import speed
    import workloads

    probe = speed.Probe(workloads.PROBE_KERNEL[args.workload])
    probe.sample(0.0)  # warm-up, not kept
    probe.reset()
    reqs, gen_s = setup(args.workload, args.seed, probe)
    setup_scale = probe.scale()
    setup_s = (import_s + gen_s) * setup_scale
    probe.reset()
    gc.collect()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        res = measure_traced(reqs, args.seconds, t_start, os.path.join(OUT_DIR, f"{tag}.spans.jsonl.gz"))
        metrics = res["per_layer"]
    else:
        res = measure(reqs, args.seconds, t_start, probe)
        metrics = {name: res[name] for name in ("throughput_rps", "latency_p50_ms", "latency_p90_ms")}
        metrics["peak_rss_mb"] = _peak_rss_mb(args.workload)
        metrics["setup_s"] = setup_s
    record = run_record(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, requests=res["attempted"],
        pinned_cpu=cpu,
    )
    record.update({k: v for k, v in res.items() if k != "per_layer"})
    record["setup_s"] = setup_s
    record["setup_wall_s"] = import_s + gen_s
    record["setup_speed_scale"] = setup_scale
    record["import_s"] = import_s
    record["failed_frac"] = res["failed"] / res["attempted"]
    record["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as out:
        json.dump(record, out, indent=1)

    for err in res["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {res['attempted']} requests, "
          f"failed_frac={record['failed_frac']:.4f}", file=sys.stderr)
    if not args.trace:
        print(f"  latency samples={res['latency_samples']}, beyond p90={res['samples_beyond_p90']}, "
              f"speed scale={res['speed_scale']:.4f}, wall-clock: {res['wall']}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.4f} {unit_of(name)}", file=sys.stderr)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """Unit of a metric as declared in BENCHMARK.json."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "calls/req"
    if name.endswith("_ms"):
        return "ms/req"
    if name.endswith(".input_elems"):
        return "elems/req"
    return "ratio"


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    rows = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(UNITS) + ["failed_frac"]
    print(f"{'metric':18s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOAD_NAMES))
    for name in names:
        cells = []
        for w in WORKLOAD_NAMES:
            row = rows[w]
            value = row["failed"] / row["attempted"] if name == "failed_frac" else row["metrics"][name]["value"]
            cells.append(f"{value:16.4f}")
        print(f"{name:18s} {UNITS.get(name, '1'):6s}" + "".join(cells))
    print(json.dumps(rows))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
