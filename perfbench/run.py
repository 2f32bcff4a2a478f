"""racdnn benchmark: run one workload in this process and print its result.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload is a closed loop: one caller, and each step starts when the
previous one has ended. With --trace 0 the last line of stdout is a JSON
object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run, and the spans go to perfbench/out/.
`--workload all` runs every workload, each in a fresh process, and prints
a table of the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
# untimed steps first: the first step of a process pays page faults
WARMUP_STEPS = 1
# a tail percentile needs at least ten samples beyond it
TAIL_BEYOND = 10
MEMORY_STEPS = 2
_clock = time.perf_counter

END_TO_END = {
    "samples_per_s": "images/s",
    "step_p50_s": "s",
    "step_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may run on. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None for another BLAS."""
    import ctypes
    import glob

    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(nproc: int) -> dict:
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": threads if threads is not None else int(os.environ[BLAS_ENV[0]]),
        "nproc": nproc,
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Steps:
    times: list = field(default_factory=list)       # seconds of each passed step
    busy_s: float = 0.0                             # seconds of every step run
    attempted: int = 0
    failed: int = 0
    tape_nodes: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Steps"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_one(wl, w, nets, batch, reference, stats: Steps, tracer=None):
    """One checked step. A step that raises or fails its check counts as
    failed; the harness keeps no reference to the step's tensors."""
    stats.attempted += 1
    t0 = _clock()
    try:
        out = tracer.run_step(wl.step, w, nets, batch) if tracer else wl.step(w, nets, batch)
        dt = _clock() - t0
        problems = wl.check(w, out, reference)
        stats.tape_nodes = out.tape_nodes
        del out
    except Exception as e:  # noqa: BLE001 -- a failing step is counted, not fatal
        dt = _clock() - t0
        problems = [f"{type(e).__name__}: {e}"]
    stats.busy_s += dt
    if problems:
        stats.failed += 1
        stats.problems.append(f"step {stats.attempted}: " + "; ".join(problems))
    else:
        stats.times.append(dt)


def run_loop(wl, w, nets, batches, refs, seconds, min_steps, tracer=None) -> Steps:
    """Steps for `seconds`, and past that until `min_steps` have passed or
    three times `seconds` are up."""
    stats = Steps()
    start = _clock()
    while True:
        elapsed = _clock() - start
        if elapsed >= seconds and (len(stats.times) >= min_steps or elapsed >= 3 * seconds):
            return stats
        k = stats.attempted % len(batches)
        run_one(wl, w, nets, batches[k], refs[k], stats, tracer)


def tail(times):
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least TAIL_BEYOND samples above it; the maximum if too few."""
    t = sorted(times)
    n = len(t)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return t[rank - 1], 100.0 * rank / n, n


def measure_setup(w, seed) -> float:
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), w.preset, str(seed)],
                              cwd=HERE, capture_output=True, text=True, timeout=120, check=True)
        runs.append(float(done.stdout.split()[-1]))
    return statistics.median(runs)


def prepare(wl, w, seed, stats: Steps):
    """Inputs, reference digests (None where there are none), nets, and
    the untimed warm-up steps, counted in `stats`."""
    batches = wl.make_inputs(w, seed)
    refs = wl.load_reference(w, seed) or [None] * len(batches)
    nets = wl.build_nets(w.preset, seed)
    for i in range(WARMUP_STEPS):
        run_one(wl, w, nets, batches[i], refs[i], stats)
    return batches, refs, nets


def end_to_end(wl, w, seed, seconds) -> tuple[dict, Steps, dict]:
    setup_s = measure_setup(w, seed)
    warm = Steps()
    batches, refs, nets = prepare(wl, w, seed, warm)
    stats = run_loop(wl, w, nets, batches, refs, seconds, TAIL_BEYOND + 1)
    stats.add(warm)
    times = stats.times or [stats.busy_s]
    tail_s, pct, n = tail(times)
    metrics = {
        "samples_per_s": w.batch * len(stats.times) / stats.busy_s,
        "step_p50_s": statistics.median(times),
        "step_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    notes = {"step_tail_percentile": pct, "step_samples": n,
             "error_rate": stats.failed / stats.attempted}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, stats, notes


def traced(wl, w, seed, seconds, env) -> tuple[dict, Steps, dict]:
    import tracing
    stats = Steps()
    batches, refs, nets = prepare(wl, w, seed, stats)
    plain = run_loop(wl, w, nets, batches, refs, seconds / 3, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spans = run_loop(wl, w, nets, batches, refs, 2 * seconds / 3, 3, tracer)
    finally:
        tracer.restore()
    stats.add(plain)
    stats.add(spans)

    # memory: tracemalloc only, after the spans, so neither skews the other
    retained = peak = 0
    memory = Steps()
    tracemalloc.start()
    try:
        for i in range(MEMORY_STEPS):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_one(wl, w, nets, batches[i], refs[i], memory)
            gc.collect()
            current, peak_b = tracemalloc.get_traced_memory()
            retained, peak = current, peak_b - base
    finally:
        tracemalloc.stop()
    stats.add(memory)

    m = tracer.layer_metrics()
    m["tensor.tape.nodes"] = spans.tape_nodes
    m["tensor.retained_mb"] = retained / 2**20
    m["tensor.step_peak_mb"] = peak / 2**20
    m["trace_overhead"] = (statistics.median(spans.times) / statistics.median(plain.times)
                           if plain.times and spans.times else 0.0)
    path = OUT / f"trace-{w.name}-seed{seed}.json"
    tracer.dump(path, env)
    metrics = {k: {"value": m[k], "unit": u} for k, u in tracing.METRICS.items()}
    return metrics, stats, {"spans": str(path.relative_to(ROOT)), "span_count": len(tracer.spans)}


# ---------------------------------------------------------------------------
# command line


def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    import workloads as wl
    results = {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':40s} {'unit':9s}" + "".join(f"{n:>22s}" for n in results))
    for k in names:
        unit = next(iter(results.values()))["metrics"][k]["unit"]
        print(f"{k:40s} {unit:9s}" + "".join(
            f"{r['metrics'][k]['value']:22.6g}" for r in results.values()))
    print(f"{'error_rate':40s} {'ratio':9s}" + "".join(
        f"{r['failed'] / r['attempted']:22.6g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    nproc = pin_blas_threads()
    if not (ROOT / "src" / "racdnn" / "__init__.py").is_file():
        print(f"racdnn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # numpy loads here, after the BLAS thread cap is in the environment
    import workloads as wl
    if not Path(wl.N.__file__).resolve().is_relative_to(wl.SRC):
        print(f"racdnn imported from {wl.N.__file__}, not from {wl.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)} or 'all'")
    w = wl.WORKLOADS[args.workload]

    env = environment(nproc)
    if env["blas_threads"] > nproc:
        print(f"BLAS uses {env['blas_threads']} threads on {nproc} CPUs", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    if args.trace:
        metrics, stats, notes = traced(wl, w, args.seed, args.seconds, env)
    else:
        metrics, stats, notes = end_to_end(wl, w, args.seed, args.seconds)
    for p in stats.problems[:5]:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"workload": w.name, "seed": args.seed, **notes}))
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
