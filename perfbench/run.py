"""The manitrans benchmark: one command, three named workloads.

    python3 perfbench/run.py --workload {oneshot,sweep,group} --seed N \
        --seconds S --trace {0,1}

Load comes from one process, a closed loop with one caller: each timed
call is a public numerical function of the library (never the
`manitrans-bench` adapters), made only after the previous one returned.
The workload's pass of calls repeats until S seconds have elapsed; the
pass in progress finishes.  Every output is checked outside the timer, and
once per family per run the closed form is compared with the RK oracle at
a small size.  BLAS and OpenMP are pinned to one thread before numpy is
imported.

With --trace 0 the last line of stdout carries the end-to-end metrics;
set-up time is the median over several fresh processes, each timed from
its start to the moment it would make its first timed call.  With
--trace 1, passes alternate between untraced and traced (wrappers from
tracer.py); the last line carries the per-layer metrics, and the spans are
written to .perfbench/trace_<workload>.json.  --smoke switches to tiny
sizes for the benchmark's own tests.  Lines before the last one, starting
with '#', record the environment and the sample counts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 5
WORKLOADS = ("oneshot", "sweep", "group")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import manitrans from this checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import manitrans
    except ImportError as exc:
        raise SystemExit(f"cannot import manitrans from {src}: {exc}")
    if not os.path.abspath(manitrans.__file__).startswith(src + os.sep):
        raise SystemExit(f"manitrans was imported from {manitrans.__file__}, not {src}")


def prepare(args):
    """Geometry construction, inputs and warm-up: one call per entry point
    and geometry, in pass order (a sweep plan precedes its transports)."""
    import workloads
    workload = workloads.BUILDERS[args.workload](args.seed, smoke=args.smoke)
    seen = set()
    for call in workload.calls:
        if (call.family, call.geometry) not in seen:
            seen.add((call.family, call.geometry))
            try:
                call.run()
            except Exception:  # the timed calls count and report it
                pass
    return workload


def measure_setup(args):
    """Median set-up time of fresh processes, from spawn to the moment each
    would make its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - spawned)
    return statistics.median(samples), samples


def environment(args):
    import ctypes
    import glob
    import platform
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        libdir = os.path.join(os.path.dirname(module.__file__), os.pardir,
                              module.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    threads = getattr(lib, sym)()
                    break
        return {"name": info.get("name"), "version": info.get("version"), "threads": threads}

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
        "pinned": {k: os.environ.get(k) for k in THREAD_PINS},
        "seed": args.seed, "workload": args.workload, "smoke": args.smoke,
    }


def run(args):
    """Run one benchmark invocation; returns the result object."""
    import resource
    import ledger as records
    import tracer as tracing
    env = environment(args)
    print("# env " + json.dumps(env), flush=True)
    setup_s = None
    if not args.trace:
        setup_s, samples = measure_setup(args)
        print(f"# setup_s samples {[round(s, 4) for s in samples]}", flush=True)
    ledger = records.Ledger(prepare(args))
    ledger.oracle()
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(ledger.latency) < 1 + args.trace:
        if args.trace and len(ledger.latency) % 2 == 1:
            tracer.counts.clear()
            with tracing.installed(tracer):
                ledger.record_pass(tracer)
            ledger.pass_counts.append(dict(tracer.counts))
        else:
            ledger.record_pass()
    print("# samples " + json.dumps(ledger.samples()), flush=True)
    for failure in ledger.failures[:20]:
        print(f"# FAILED {failure}", flush=True)
    problems = []
    if args.trace:
        metrics, problems, breakdown = records.per_layer(ledger, tracer)
        print("# self_ms_per_call " + json.dumps(
            {k: round(v, 4) for k, v in sorted(breakdown.items())}), flush=True)
        for problem in problems:
            print(f"# INCONSISTENT {problem}", flush=True)
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench", f"trace_{args.workload}.json"), "w") as f:
            json.dump({"env": env, "self_ms_per_call": breakdown,
                       "pass_counts": ledger.pass_counts, **tracer.dump()}, f)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = records.end_to_end(ledger, setup_s, peak_rss_mb)
    return {
        "correct": not ledger.failures and not problems,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)   # before numpy is first imported
    import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if args.setup_probe:
        prepare(args)
        print(repr(time.time()), flush=True)
        return
    result = run(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
