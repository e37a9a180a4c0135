"""weil-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is cutoff_ladder, basis_bank, form_queries or verify_all; `all` runs
the four in turn, each in its own process, and prints one table. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (from spans around the layer functions) with --trace 1.
See README.md in this directory.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, fixed before numpy loads: outputs differ bitwise between
# one and two threads, and the pin is inherited by verify_all's processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WEIL_LAB_CACHE", None)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("cutoff_ladder", "basis_bank", "form_queries", "verify_all")
SETUP_REPEATS = 5
HEIGHT_T = 100.0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def warm_up(nu, np):
    """First-call costs of BLAS and the allocator, paid on synthetic grids
    that leave none of the program's caches filled."""
    freq = nu.symmetric_grid(500.0, 0.05)
    vals = np.exp(-0.01 * freq.nodes() ** 2).astype(complex)
    F = nu.GridFunction(freq, vals, "frequency")
    psi = nu.inverse_fourier_grid(F, nu.Grid(-4.0, 12.0, 2001))
    nu.forward_fourier_grid(psi, nu.Grid(-60.0, 60.0, 2001))


def run_ops(workload, inputs, tracer):
    """Time each operation; check it outside the timed span.

    Returns (times, failed, wrong): an operation fails when it raises or a
    check rejects its output (or cannot read it); `wrong` counts the latter."""
    times, failed, wrong = [], 0, 0
    for i, inp in enumerate(inputs):
        workload.prepare(inp)
        tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
        tracer.enabled = False
        if error is not None:
            failed += 1
            print("op %d raised: %s" % (i, error), file=sys.stderr)
            workload.finish(inp)
            continue
        try:
            msgs = workload.check(inp, out)
        except Exception:
            msgs = ["check raised: " + traceback.format_exc(limit=3)]
        finally:
            workload.finish(inp)
        if msgs:
            failed += 1
            wrong += 1
            print("op %d failed: %s" % (i, "; ".join(msgs)), file=sys.stderr)
    return times, failed, wrong


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "weil_lab", "__init__.py")):
        print("weil_lab sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    from weil_lab import numerics as nu
    from weil_lab import zero_catalog as zc
    import checks
    import tracing
    import workloads
    t_import = time.perf_counter() - T_START

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload]()
    workload.tracer = tracer if args.trace else None

    # setup, repeated; the last repetition is the one traced and kept
    bodies = []
    for rep in range(SETUP_REPEATS):
        traced = rep == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        tracer.enabled = traced
        zs = zc.compute_zeros(HEIGHT_T)
        tracer.enabled = False
        warm_up(nu, np)
        tracer.enabled = traced
        workload.setup(zs)
        tracer.enabled = False
        bodies.append(time.perf_counter() - t0)
    setup_s = t_import + statistics.median(bodies)
    table = checks.load_table(os.path.join(HERE, "data", "zeros_t110.txt"))
    setup_msg = checks.catalog_matches_table(zs.ordinates, table, HEIGHT_T)
    if setup_msg:
        print("setup check failed: %s" % setup_msg, file=sys.stderr)

    rng = np.random.default_rng(args.seed % 2 ** 32)
    inputs = [inp for _ in range(workload.rounds(args.seconds))
              for inp in workload.round_inputs(rng)]
    times, failed, wrong = run_ops(workload, inputs, tracer)

    who = resource.RUSAGE_CHILDREN if args.workload == "verify_all" else resource.RUSAGE_SELF
    wall_s = sum(times)
    values = {"setup_s": setup_s, "wall_s": wall_s,
              "op_p50_ms": 1e3 * statistics.median(times),
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    summary = "%s seed=%d ops=%d failed=%d blas_threads=1 trace=%d wall_s=%.4f" % (
        args.workload, args.seed, len(times), failed, args.trace, wall_s)
    if len(times) >= 100:
        summary += " op_p90_ms=%.4f" % (1e3 * statistics.quantiles(times, n=10)[8])
    print(summary)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
        os.makedirs(workloads.RESULTS, exist_ok=True)
        path = os.path.join(workloads.RESULTS, "trace_%s_seed%d.json" % (args.workload, args.seed))
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "blas_threads": 1,
                            "setup_s": setup_s, "wall_s": wall_s})
        print("trace: %s" % os.path.relpath(path, ROOT))
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not setup_msg and wrong == 0, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, then one table."""
    rows, code = [], 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit code %d" % (name, proc.returncode))
            code = 1
            continue
        print("\n".join(line for line in lines if line.startswith(name + " ")))
        rows.append((name, json.loads(lines[-1])))
    for name, res in rows:
        print("%-14s correct=%s attempted=%d failed=%d" % (
            name, res["correct"], res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("    %-36s %14.6g %s" % (metric, m["value"], m["unit"]))
    print(json.dumps({name: res for name, res in rows}))
    return code


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
