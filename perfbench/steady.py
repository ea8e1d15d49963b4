"""Steadiness report: two independent sets of benchmark runs of the same code.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py

Each set runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json``
and seed, one run at a time, with its ``run_seconds``; set 1 uses seeds
``1..10`` and set 2 seeds ``11..20``.  For every workload and end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance as a share of the median), the ratio of set 2's median to set 1's,
and two checks against the metric's ``bound``: both spreads stay within the
bound, and the two medians differ by no more than the bound in either
direction.  ``steady`` marks spreads below a third of the bound.  Exits 1
if any run failed or any check failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 200
SEEDS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {(s, w, m["name"]): [] for s in (1, 2) for w in workloads for m in metrics}
    failures = []
    for set_index in (1, 2):
        first = 1 + (set_index - 1) * SEEDS_PER_SET
        for seed in range(first, first + SEEDS_PER_SET):
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    failures.append(f"set {set_index} {workload} seed {seed}: {result['failed']} failed runs")
                for metric in metrics:
                    values[(set_index, workload, metric["name"])].append(
                        result["metrics"][metric["name"]]["value"]
                    )
                print(f"set {set_index} seed {seed} {workload}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = not failures
    header = (f"{'workload':16} {'metric':12} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'ratio':>6}  checks")
    print(header)
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first, second = (summarize(values[(s, workload, name)]) for s in (1, 2))
            ratio = second["median"] / first["median"]
            agree = abs(ratio - 1.0) <= bound
            within = all(s["spread"] <= bound for s in (first, second))
            steady = all(s["spread"] < bound / 3 for s in (first, second))
            ok = ok and agree and within
            for set_index, stats in ((1, first), (2, second)):
                checks, shown_ratio = "", ""
                if set_index == 2:
                    shown_ratio = f"{ratio:.3f}"
                    checks = (f"{'within' if within else 'SPREAD>BOUND'} "
                              f"{'agree' if agree else 'DISAGREE'}{' steady' if steady else ''}")
                print(f"{workload:16} {name:12} {set_index:>3} {stats['q1']:10.4g} {stats['median']:10.4g} "
                      f"{stats['q3']:10.4g} {stats['spread']:7.3f} {bound:6.2f} {shown_ratio:>6}  {checks}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
