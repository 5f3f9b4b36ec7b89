"""One benchmark run inside a fresh interpreter; started by run.py.

Usage: child.py WORKLOAD SEED SECONDS MODE RESULT_PATH WORK_DIR

MODE is ``setup`` (import, build inputs, warm up, stop), ``timed`` (then
the closed loop, untraced) or ``trace`` (then a fixed number of rounds,
first untraced and then traced).  The result is written as JSON to
RESULT_PATH; run.py turns it into metrics.
"""

import time

_T0 = time.perf_counter()

import diskmean  # noqa: E402  (the import is part of set-up time)

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: A run stops starting rounds after this many seconds, whatever it lacks.
HARD_LIMIT_S = 120.0


def _score(query, output, error, tally) -> None:
    tally["attempted"] += 1
    reason = error if error is not None else query.check(output)
    if reason is None:
        return
    tally["failed"] += 1
    label = query.label
    if error is None and query.seed_answer is not None and query.seed_answer(output):
        tally["known"] += 1
        tally["known_labels"][label] = tally["known_labels"].get(label, 0) + 1
    elif len(tally["unexpected"]) < 20:
        tally["unexpected"].append(f"{label}: {reason}")
    else:
        tally["unexpected_more"] += 1


def _new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "known": 0, "known_labels": {},
            "unexpected": [], "unexpected_more": 0, "latencies": []}


def _run_one(query, tally) -> None:
    clock = time.perf_counter
    error = output = None
    start = clock()
    try:
        output = query.run()
    except Exception as exc:  # an unexpected error is a failed query
        error = f"raised {type(exc).__name__}: {exc}"
    tally["latencies"].append(clock() - start)
    _score(query, output, error, tally)


def _closed_loop(workload, seconds: float, min_samples: int) -> dict:
    tally = _new_tally()
    start = time.perf_counter()
    for batch in workload.rounds():
        elapsed = time.perf_counter() - start
        if tally["attempted"] and (elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and tally["attempted"] >= min_samples)):
            break
        for query in batch:
            _run_one(query, tally)
    return tally


def main(argv) -> int:
    name, seed, seconds, mode, result_path, work_dir = argv
    root_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(diskmean.__file__).startswith(root_src + os.sep):
        print(f"diskmean imported from {diskmean.__file__}, not from {root_src}",
              file=sys.stderr)
        return 1
    if name == "catalog":
        importlib.import_module("diskmean.cli")  # part of this workload's import
    import_ms = 1e3 * (time.perf_counter() - _T0)

    import tracing
    import workloads

    tracer = tracing.Tracer()
    if mode == "trace":  # set-up is traced too: family builds happen there
        tracer.query = "setup"
        tracer.install()
    workload = workloads.WORKLOADS[name](diskmean, int(seed), work_dir)
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):  # CLI error lines of refused queries
        for query in workload.warm_up():
            try:
                query.check(query.run())
            except Exception:  # scored when the same query type runs later
                pass
    tracer.uninstall()
    result = {"setup_s": time.perf_counter() - _T0, "import_ms": import_ms}

    if mode == "timed":
        p = workload.tail_percentile
        min_samples = math.ceil(10 / (1 - p / 100)) + 1
        with contextlib.redirect_stderr(sink):
            result["timed"] = _closed_loop(workload, float(seconds), min_samples)
        result["tail_percentile"] = p
    elif mode == "trace":
        batches = list(itertools.islice(workload.rounds(), workload.trace_rounds))
        passes = {}
        with contextlib.redirect_stderr(sink):
            for label in ("untraced", "traced"):
                if label == "traced":
                    tracer.install()
                cache = getattr(diskmean.families, "_build_cached", None)
                before = cache.cache_info() if cache else None
                tally = _new_tally()
                for qid, query in enumerate(q for b in batches for q in b):
                    tracer.query = qid
                    _run_one(query, tally)
                after = cache.cache_info() if cache else None
                passes[label] = tally
        tracer.uninstall()
        qps = {k: len(t["latencies"]) / math.fsum(t["latencies"]) for k, t in passes.items()}
        hits = after.hits - before.hits if cache else 0
        misses = after.misses - before.misses if cache else 0
        result["trace"] = passes["traced"]
        result["layers"] = tracing.layer_metrics(
            tracer.spans, import_ms, hits, misses,
            qps["traced"] - qps["untraced"])
        result["untraced_qps"] = qps["untraced"]
        spans_path = os.path.join(os.path.dirname(work_dir.rstrip(os.sep)),
                                  f"spans-{name}-seed{seed}.json")
        tracer.dump(spans_path)
        result["spans_path"] = spans_path

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
