"""Self-test of the benchmark's tracer; run from the repository root:

    python3 bench/selftest.py

Checks that
* every module attribute binding a traced function is wrapped, including
  the ``from .x import y`` copies and ``ComplexSeries.__call__``;
* one query makes the same number of ``series.eval`` calls through
  ``cli.main`` as through the library;
* every count metric repeats exactly across two traced runs of one seed,
  for each workload.

Exits 0 when all hold.  Named so that the repository's pytest run does not
collect it: it starts benchmark runs, which take about a minute.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import diskmean  # noqa: E402
import diskmean.cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402

#: Binding sites the tracer must reach, beyond each function's own module.
COPIES = {
    "classes": ("sup_on_circle", "functional_series"),
    "means": ("functional_series",),
    "families": ("functional_eval_direct",),
    "cli": ("check_membership", "class_radius", "starlike_scan", "harmonic_mean",
            "verify_closure", "build", "extend_table1", "table1", "boundary_image"),
}


def check_binding_sites() -> list[str]:
    originals = {}
    for name, (module, path) in tracing.TRACED.items():
        originals[name] = tracing._resolve(getattr(diskmean, module), path)[1]
    tracer = tracing.Tracer()
    tracer.install()
    errors = []
    try:
        for module, names in COPIES.items():
            for attr in names:
                if not hasattr(getattr(getattr(diskmean, module), attr), "__wrapped__"):
                    errors.append(f"diskmean.{module}.{attr} is not wrapped")
        series = diskmean.ComplexSeries
        if not (series.eval is series.__call__ and hasattr(series.eval, "__wrapped__")):
            errors.append("ComplexSeries.eval/__call__ not wrapped together")
        for module in tracing.diskmean_modules():
            for attr, value in vars(module).items():
                for name, original in originals.items():
                    if value is original:
                        errors.append(f"{module.__name__}.{attr} still unwrapped ({name})")
    finally:
        tracer.uninstall()
    return errors


def _eval_calls(call) -> int:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return sum(1 for s in tracer.spans if s[tracing.NAME] == "series.eval")


def check_cli_matches_library() -> list[str]:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    errors = []
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        out = os.path.join(tmp, "answer.out")
        fn = diskmean.build(diskmean.FamilySpec(diskmean.FamilyVariant.EX31, n=3))
        cases = (
            (["check", "--class", "M", "ex31:n=3"],
             lambda: diskmean.check_membership(diskmean.FunctionalKind.M, fn)),
            (["boundary", "ex31:n=3"], lambda: diskmean.boundary_image(fn, 0.999, 2048)),
        )
        for argv, library in cases:
            via_cli = _eval_calls(lambda: diskmean.cli.main(argv + ["-o", out]))
            via_library = _eval_calls(library)
            if via_cli != via_library or via_cli == 0:
                errors.append(f"{' '.join(argv)}: series.eval.calls {via_cli} via cli, "
                              f"{via_library} via the library")
    return errors


def check_counts_repeat(seed: int = 5) -> list[str]:
    counted = [n for n, unit in tracing.LAYER_METRICS if unit in ("count", "ratio")]
    errors = []
    for workload in run.WORKLOADS:
        seen = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "1"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                check=False)
            if proc.returncode != 0:
                errors.append(f"{workload}: traced run exited {proc.returncode}: "
                              f"{proc.stderr[-500:]}")
                break
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            seen.append({n: metrics[n]["value"] for n in counted})
        if len(seen) == 2:
            errors += [f"{workload}: {n} {seen[0][n]} then {seen[1][n]}"
                       for n in counted if seen[0][n] != seen[1][n]]
    return errors


def main() -> int:
    errors = []
    for check in (check_binding_sites, check_cli_matches_library, check_counts_repeat):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        errors += found
    for line in errors:
        print(f"  {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
