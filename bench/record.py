"""Record reference.json: the answers the checks compare with.

Run from the repository root at the commit whose answers become the
reference:

    python3 bench/record.py

Answers that follow from a closed form are checked against that form and
are not recorded.  The known-defect queries are scored against the
mathematics, so they are not recorded either.  Re-recording replaces the
reference; do it only when the program's answers are meant to change, and
say why in the change that does it.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(os.path.dirname(HERE), ".bench_work")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import diskmean  # noqa: E402
import diskmean.cli  # noqa: E402

import workloads  # noqa: E402


def record_catalog(out_path: str) -> dict:
    ref = {}
    for argv in workloads.catalog_entries():
        key = " ".join(argv)
        if key in workloads.KNOWN_DEFECTS or key in ref:
            continue
        if os.path.exists(out_path):
            os.remove(out_path)
        rc = diskmean.cli.main(argv + ["-o", out_path])
        out = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                out = workloads.parse_output(argv, fh.read())
        ref[key] = {"exit": rc, "out": out}
    return ref


def record_ex32() -> dict:
    spec, variant = diskmean.FamilySpec, diskmean.FamilyVariant
    orders = [workloads.EX32_DEFAULT] + [o for s in workloads.EX32_ORDERS for o in s]
    starlike = {}
    for order in orders:
        rep = diskmean.starlike_scan(diskmean.build(spec(variant.EX32, order=order)))
        starlike[str(order)] = {"min_value": rep.min_value,
                                "starlike_numeric": rep.starlike_numeric}
    full = diskmean.build(spec(variant.EX32))
    means = {}
    for v, n in workloads.EX32_PARTNERS:
        g = diskmean.build(spec(variant(v), n=n))
        means[f"{v}:n={n}"] = diskmean.harmonic_mean(full, g).min_denominator_modulus
    return {"starlike": starlike, "mean_min_denominator": means}


def main() -> int:
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        catalog = record_catalog(os.path.join(tmp, "answer.out"))
    ref = {"catalog": catalog, "ex32": record_ex32()}
    # one catalog answer per line keeps re-recordings reviewable as diffs
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(catalog.items())]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write('{"catalog": {\n' + ",\n".join(lines) + "\n},\n")
        fh.write(f'"ex32": {json.dumps(ref["ex32"], sort_keys=True)}}}\n')
    exits = {}
    for entry in catalog.values():
        exits[entry["exit"]] = exits.get(entry["exit"], 0) + 1
    print(f"recorded {len(catalog)} catalog answers (exit codes {exits}) "
          f"and {len(ref['ex32']['starlike'])} ex32 orders")
    return 0


if __name__ == "__main__":
    sys.exit(main())
