"""Run every workload in two sets of 10 untraced runs (seeds 1-10, then
seeds 11-20) and one traced run (seed 1).  Print each metric by name and
unit with its median, quartiles and spread per set, the shift of the
second set's median from the first's, and the operations attempted and
failed.

    python3 bench/sweep.py

Runs are sequential, one process at a time, each as long as `run_seconds`
in BENCHMARK.json.  Raw results go to bench/out/sweep.json.
"""

from __future__ import annotations

import fractions
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = [range(1, 11), range(11, 21)]  # seeds of the untraced runs
TRACED_SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def describe(label, results):
    shares = sorted({str(fractions.Fraction(r["failed"], r["attempted"])) for r in results})
    print(
        f"  {label}: correct={all(r['correct'] for r in results)} "
        f"attempted={sum(r['attempted'] for r in results)} "
        f"failed={sum(r['failed'] for r in results)} (failed share per run: {', '.join(shares)})"
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run_once(workload, s, seconds, 0) for s in seeds] for seeds in SETS]
        traced = run_once(workload, TRACED_SEED, seconds, 1)
        raw[workload] = {"sets": sets, "traced": traced}
        print(f"\n{workload} ({len(SETS)} sets of {len(SETS[0])} runs of {seconds} s)")
        for seeds, results in zip(SETS, sets):
            describe(f"seeds {seeds.start}-{seeds.stop - 1}", results)
        print(
            f"  {'metric':14s} {'unit':5s} {'median 1':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s}"
            f" {'median 2':>10s} {'spread':>7s} {'shift':>7s} {'bound':>6s}"
        )
        for name, bound in bounds.items():
            med, q1, q3, spread = stats(sets[0], name)
            med2, _, _, spread2 = stats(sets[1], name)
            print(
                f"  {name:14s} {sets[0][0]['metrics'][name]['unit']:5s} {med:10.5g} {q1:10.5g}"
                f" {q3:10.5g} {spread:7.1%} {med2:10.5g} {spread2:7.1%}"
                f" {(med2 - med) / med:+7.1%} {bound:6.2f}"
            )
        describe(f"traced, seed {TRACED_SEED}", [traced])
        for name, m in traced["metrics"].items():
            print(f"  {name:38s} {m['unit']:6s} {m['value']:12.6g}")
        sys.stdout.flush()
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "sweep.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
