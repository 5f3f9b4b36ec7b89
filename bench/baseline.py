"""Re-measure the baseline table of ROADMAP.md ("Recent") with the tracer.

    python3 bench/baseline.py

Each library operation runs REPEATS times with the tracer installed; the
table shows the median duration of its span.  ``import diskmean`` is timed
in fresh interpreters started as run.py starts its children.
"""

import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import diskmean  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402

REPEATS = 5
#: operation, span name, ROADMAP value (s), earlier scratch-run value (s)
OPERATIONS = (
    ("check_membership(M, ex32)", "classes.check_membership", 0.7, 0.73),
    ("starlike_scan(ex32)", "classes.starlike_scan", 0.34, 0.31),
    ("harmonic_mean(ex32, ex32)", "means.harmonic_mean", 0.2, 0.19),
    ("extend_table1(15..200)", "families.extend_table1", 0.14, 0.09),
)


def _import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import diskmean; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=run._child_env(),
                              stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def main() -> int:
    ex32 = diskmean.build(diskmean.FamilySpec(diskmean.FamilyVariant.EX32))
    calls = (
        lambda: diskmean.check_membership(diskmean.FunctionalKind.M, ex32),
        lambda: diskmean.starlike_scan(ex32),
        lambda: diskmean.harmonic_mean(ex32, ex32),
        lambda: diskmean.extend_table1(15, 200),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for call in calls:
            for _ in range(REPEATS):
                call()
    finally:
        tracer.uninstall()
    print(run._environment())
    print(f"| operation | ROADMAP | earlier scratch run | this run (median of {REPEATS}) |")
    print("|---|---|---|---|")
    for label, span, roadmap, scratch in OPERATIONS:
        times = [s[tracing.END] - s[tracing.START] for s in tracer.spans
                 if s[tracing.NAME] == span and s[tracing.PARENT] == -1]
        print(f"| `{label}` | {roadmap} s | {scratch} s | {statistics.median(times):.3f} s |")
    print(f"| `import diskmean` | 0.3 s | 0.15 s | {_import_seconds():.3f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
