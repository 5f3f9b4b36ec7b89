"""diskmean benchmark: one workload run, checked, with its metrics.

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Every interpreter that touches diskmean is a fresh child (child.py) with
BLAS/OpenMP capped at one thread, so set-up includes the import, the
family cache starts empty and peak memory is the child's own.  With
``--trace 0`` the run sets up SETUP_REPEATS times (set-up time is their
median) and then runs the closed loop for ``--seconds``; it prints the
end-to-end metrics.  With ``--trace 1`` it replays the workload's first
rounds untraced and then traced, and prints the per-layer metrics; the
spans are kept in .bench_work/.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts every
query that raised or missed its reference, known defects included;
``correct`` is false when any query failed other than a known defect
giving the seed's documented answer.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("catalog", "ex32", "crosscheck")
SETUP_REPEATS = 4  # set-up-only children before the measured one
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(args, mode: str, work: str, index: int) -> dict:
    result_path = os.path.join(work, f"result-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), args.workload,
           str(args.seed), str(args.seconds), mode, result_path, work]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise RuntimeError(f"{mode} child exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _environment() -> str:
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        sha = proc.stdout.strip() or sha
    import numpy

    return (f"nproc {os.cpu_count()}  python {platform.python_version()}  "
            f"numpy {numpy.__version__}  git {sha}")


def _tally_summary(tally: dict) -> tuple[bool, int, int, str]:
    unexpected = tally["failed"] - tally["known"]
    note = ""
    if tally["known"]:
        note = ", ".join(f"{k} x{v}" for k, v in sorted(tally["known_labels"].items()))
        note = f"; known-defect queries with the seed's answer: {note}"
    for line in tally["unexpected"]:
        print(f"FAILED {line}")
    if tally["unexpected_more"]:
        print(f"FAILED ... and {tally['unexpected_more']} more")
    return unexpected == 0, tally["attempted"], tally["failed"], note


def _timed(args, work: str) -> dict:
    setups = [_run_child(args, "setup", work, i)["setup_s"] for i in range(SETUP_REPEATS)]
    res = _run_child(args, "timed", work, SETUP_REPEATS)
    setups.append(res["setup_s"])
    tally = res["timed"]
    lat = sorted(tally["latencies"])
    n = len(lat)
    p = res["tail_percentile"]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[p - 1]
    beyond = sum(1 for x in lat if x > tail)
    correct, attempted, failed, note = _tally_summary(tally)
    metrics = {
        "queries_per_s": (n / math.fsum(lat), "1/s", f"{n} queries"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms", f"median of {n}"),
        "latency_tail_ms": (1e3 * tail, "ms", f"p{p} of {n}, {beyond} beyond"),
        "failed_frac": (failed / attempted, "ratio", f"{failed} of {attempted}{note}"),
        "setup_s": (statistics.median(setups), "s",
                    "median of " + ", ".join(f"{s:.3f}" for s in setups)),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", "child maxrss"),
    }
    for name, (value, unit, detail) in metrics.items():
        print(f"{name:<16} {value:>12.6g} {unit:<6} ({detail})")
    # failed_frac is zero on a correct workload, and a reported metric must
    # never be zero; the JSON line carries it as attempted and failed
    shown = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
             if k != "failed_frac"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}


def _traced(args, work: str) -> dict:
    import tracing

    res = _run_child(args, "trace", work, 0)
    layers = res["layers"]
    for name, unit in tracing.LAYER_METRICS:
        print(f"{name:<44} {layers[name]:>14.6g} {unit}")
    print(f"untraced queries_per_s {res['untraced_qps']:.6g} 1/s; "
          f"spans in {os.path.relpath(res['spans_path'], ROOT)}")
    correct, attempted, failed, _ = _tally_summary(res["trace"])
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "diskmean")):
        print(f"no diskmean sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  {_environment()}")
        summary = (_traced if args.trace else _timed)(args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
