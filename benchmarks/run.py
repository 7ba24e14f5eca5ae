#!/usr/bin/env python3
"""fockforge benchmark: one workload per invocation, closed loop, one process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports ``fockforge`` from
the checkout's ``src``.  It pins the BLAS thread count before numpy is
imported, to ``FOCKFORGE_THREADS`` when set and otherwise to the count
``nproc`` reports.  It then times three fresh set-ups in child processes
(``setup_s``, their median), sets itself up, runs one untimed warm-up and
times whole operations one after the other until ``--seconds`` have passed.
Every operation's outputs are checked after its timing stops.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are ``setup_s``, ``check_s`` (median operation time) and
``peak_rss_mb``; with ``--trace 1`` they are the per-layer metrics of the
median operation, from spans (see ``spans.py``).  The line before it holds
the run's provenance.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the names only: importing workloads.py would load numpy before the threads are pinned
WORKLOADS = ("confined-spectra", "operator-build", "small-checks")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def pin_threads() -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    threads = os.environ.get("FOCKFORGE_THREADS") or str(len(os.sched_getaffinity(0)))
    if not threads.isdigit() or int(threads) < 1:
        raise SystemExit(f"FOCKFORGE_THREADS must be a positive integer, got {threads!r}")
    for var in ("FOCKFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return int(threads)


def require_sources():
    if not (SRC / "fockforge" / "__init__.py").is_file():
        raise SystemExit(f"no fockforge sources under {SRC}")


def import_program():
    require_sources()
    sys.path.insert(0, str(SRC))
    import fockforge

    if Path(fockforge.__file__).resolve().parent != (SRC / "fockforge").resolve():
        raise SystemExit(f"imported fockforge from {fockforge.__file__}, not from {SRC}")
    return fockforge


def set_up(workload: str, seed: int, tracer=None):
    """Inputs from the seed, then a warm-up at small sizes that loads lazy
    libraries and starts the BLAS threads.  Returns the workload."""
    from workloads import WORKLOADS as CLASSES

    cls = CLASSES[workload]
    job = cls(seed)
    cls.warm_up(seed)
    if tracer is not None:
        tracer.install()
        cls.warm_up(seed)  # once more through the wrappers
    return job


def probe_setup(args) -> list:
    """Wall time of SETUP_PROBES fresh set-ups, each from process spawn to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return samples


def provenance(fockforge, args, threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fockforge": fockforge.__version__,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": threads,
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(job, seconds: float, tracer=None) -> dict:
    """Closed loop of whole operations until `seconds` have passed."""
    durations, problems, layers = [], [], []
    failed = 0
    checks_raised_peak_mb = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            out, error = job.op(), False
        except Exception:  # a failing operation is counted and the loop goes on
            out, error = None, True
            traceback.print_exc()
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            layers.append((tracer.end(), 0.0 if error else job.report_bytes(out) / 1024))
        if error:
            failed += 1
            continue
        peak_before = peak_rss_mb()
        try:
            found = job.check(out)
        except Exception as exc:
            found = [f"check raised {exc!r}"]
        del out
        checks_raised_peak_mb = max(checks_raised_peak_mb, peak_rss_mb() - peak_before)
        if found:
            failed += 1
            problems.append(found)
            print(f"operation {len(durations)}: {found}", file=sys.stderr)
    return {"durations": durations, "failed": failed, "problems": problems,
            "layers": layers, "checks_raised_peak_mb": checks_raised_peak_mb}


def trace_metrics(run: dict, args) -> dict:
    import spans as tracing

    durations = run["durations"]
    # the median operation's own breakdown, so its self times add up to its time
    ordered = sorted(range(len(durations)), key=durations.__getitem__)
    median_op = ordered[(len(ordered) - 1) // 2]
    spans, report_kb = run["layers"][median_op]
    wall = durations[median_op]
    values = tracing.summarize(spans, wall)
    values["cli.report_kb"] = report_kb
    values["trace.check_s"] = wall
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"operation": median_op, "wall_s": wall,
                                "spans": tracing.span_records(spans)}) + "\n")
    units = {"calls": "count", "n3": "count", "max_dim": "count", "dense_out_mb": "MB",
             "report_kb": "kB"}
    return {name: {"value": value, "unit": units.get(name.rsplit(".", 1)[-1], "s")}
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_sources()
    threads = pin_threads()
    if args.setup_probe:
        import_program()
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else probe_setup(args)
    fockforge = import_program()
    tracer = None
    if args.trace:
        import spans as tracing

        tracer = tracing.Tracer()
    job = set_up(args.workload, args.seed, tracer)
    run = measure(job, args.seconds, tracer)

    durations = run["durations"]
    if args.trace:
        metrics = trace_metrics(run, args)
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   "check_s": {"value": statistics.median(durations), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
    record = provenance(fockforge, args, threads)
    record.update({"attempted": len(durations), "failed": run["failed"],
                   "setup_samples_s": setup_samples, "durations_s": durations,
                   "checks_raised_peak_mb": run["checks_raised_peak_mb"]})
    print(json.dumps({"provenance": record}))
    print(json.dumps({"correct": not run["problems"], "attempted": len(durations),
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
