"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result-*.json files written by perfbench/run.py (the
run writes them to perfbench/out/; copy that directory aside between the two
commits). For every workload and end-to-end metric the script prints both
medians over the seeds, the quartile spread of the base as a share of its
median, and the change. It refuses to compare results measured with
different rational backends or Python versions, since those move every
figure at once.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from run import END_TO_END


def load(directory: str) -> list:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    if not out:
        raise SystemExit(f"no result-*-trace0.json files in {directory}")
    return out


def environment_key(results: list, directory: str) -> tuple:
    keys = {(r["env"]["rational_backend"], r["env"]["python"]) for r in results}
    if len(keys) != 1:
        raise SystemExit(f"{directory} mixes environments: {sorted(keys)}")
    return keys.pop()


def spread(values: list) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    kb, kn = environment_key(base, argv[0]), environment_key(new, argv[1])
    if kb != kn:
        print(f"refusing to compare: backend/python {kb} against {kn}", file=sys.stderr)
        return 3
    print(f"{'workload':20s} {'metric':16s} {'base':>12s} {'new':>12s} {'change':>8s} {'base spread':>11s}")
    for workload in sorted({r["workload"] for r in base} | {r["workload"] for r in new}):
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print(f"{workload:20s} missing on one side")
            continue
        for metric, unit in END_TO_END:
            bv = [r["metrics"][metric]["value"] for r in b]
            nv = [r["metrics"][metric]["value"] for r in n]
            mb, mn = statistics.median(bv), statistics.median(nv)
            change = (mn - mb) / mb if mb else float("nan")
            print(
                f"{workload:20s} {metric:16s} {mb:12.4f} {mn:12.4f} {change:+8.1%} {spread(bv):11.1%}  {unit}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
