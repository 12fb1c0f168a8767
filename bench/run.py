"""Benchmark of `wricc`: one workload, one run, one JSON result line.

    python3 bench/run.py --workload icc-growth --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `wricc` is imported from its
`src/`.  The run draws ROUNDS_PER_PASS rounds of the workload's operations
from `--seed` (one pass), repeats the pass until `--seconds` have passed,
and checks every output.  Set-up (import `wricc`, parse the workload's
instances) is timed once before each round, in a child interpreter.

Every time is scaled to a reference machine speed: it is multiplied by
PROBE_REF_S over the time of a fixed pure-Python loop (the probe) run just
before and just after it.  The machine this benchmark was written on
changes speed by up to 1.7x for a minute or more at a time, and the probe
slows with the program.  Reported times are medians over the passes.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` each round also runs traced, and the last line holds the
per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ROUNDS_PER_PASS = 3
MULTIPLY_REPEATS = 5
PROBE_LOOPS = 40_000
# the probe's time on the machine's fast phase (2 vCPUs at 2.1 GHz,
# CPython 3.11); it only sets the scale of the reported times
PROBE_REF_S = 0.0077


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def probe_s() -> float:
    """Time of a fixed pure-Python loop, which tracks the machine's speed."""
    t0 = perf_counter()
    acc = {}
    for i in range(PROBE_LOOPS):
        key = (i & 255, i % 7)
        acc[key] = acc.get(key, 0) + i * i % 11
    return perf_counter() - t0


def scaled(seconds, before, after):
    """`seconds` at the reference speed, from the probe times around it."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def setup(workload):
    """Import `wricc` and parse every instance of the workload; returns
    the package, its cli module, the specs and the two times."""
    t0 = perf_counter()
    wricc = importlib.import_module("wricc")
    cli = importlib.import_module("wricc.cli")
    t1 = perf_counter()
    data = SRC / "wricc" / "instances_data"
    specs = {n: wricc.parse_instance((data / f"{n}.wri").read_text()) for n in workload.instances}
    specs.update({n: wricc.parse_instance(text) for n, text in workload.extra.items()})
    t2 = perf_counter()
    return wricc, cli, specs, t1 - t0, t2 - t1


def measure_setup(name):
    """Scaled (import, parse) times of one set-up of workload `name`."""
    sys.path.insert(0, str(SRC))
    before = probe_s()
    import_s, parse_s = setup(WORKLOADS[name])[3:]
    after = probe_s()
    return scaled(import_s, before, after), scaled(parse_s, before, after)


SETUP_CHILD = "import json, sys, run; print(json.dumps(run.measure_setup(sys.argv[1])))"


def time_setup(workload):
    """Time one more set-up in a child interpreter, so that a second copy
    of `wricc` does not add to this process's peak memory."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, workload.name],
        cwd=HERE,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        fail(f"timing set-up failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Raised(str):
    """The traceback of an operation that raised."""


def run_round(ops, tracer=None):
    """Run each operation once; returns (raw times, scaled times, results)."""
    if tracer is not None:
        tracer.install()
    raw, times, results = [], [], []
    try:
        before = probe_s()
        for op in ops:
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception:
                result = Raised(traceback.format_exc())
            raw.append(perf_counter() - t0)
            after = probe_s()
            times.append(scaled(raw[-1], before, after))
            results.append(result)
            before = after
    finally:
        if tracer is not None:
            tracer.remove()
    return raw, times, results


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()

    def check(self, ops, results):
        for op, result in zip(ops, results):
            self.attempted += 1
            reason = result if isinstance(result, Raised) else op.check(result)
            if reason is None:
                continue
            self.failed += 1
            expected = reason == op.known_fault
            if not expected:
                self.correct = False
            if reason not in self.reported:
                self.reported.add(reason)
                kind = "known fault" if expected else "WRONG OUTPUT"
                print(f"bench: {kind}: {op.label}: {reason}", file=sys.stderr)


def multiply_us(pairs) -> float:
    """Mean scaled microseconds per WreathProduct.multiply over sampled
    pairs (median of MULTIPLY_REPEATS passes)."""
    if not pairs:
        return 0.0
    per_call = []
    for _ in range(MULTIPLY_REPEATS):
        before = probe_s()
        t0 = perf_counter()
        for G, a, b in pairs:
            G.multiply(a, b)
        elapsed = perf_counter() - t0
        per_call.append(scaled(elapsed, before, probe_s()) / len(pairs))
    return statistics.median(per_call) * 1e6


def layer_metrics(tracer, executions, selfs, traced_s, untraced_s, parse_s, import_s):
    """Per-layer metrics.  Counts are per traced round execution.  Times
    are per round, like the round times: `selfs` maps a span name to its
    scaled self time in a round (median over the passes), averaged over
    the rounds."""
    c = tracer.counts

    def layer(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix + "."))

    oracle_s = layer("oracle")
    infinite_s = selfs.get("witness.verify_infinite_certificate", 0.0)
    per = {
        "setup.import_s": (import_s, "s"),
        "instances.parse_s": (parse_s, "s"),
        "cli.self_s": (layer("cli"), "s"),
        "decision.decide_s": (layer("decision"), "s"),
        "witness.build_s": (selfs.get("witness.witness", 0.0), "s"),
        "witness.finite_verify_s": (selfs.get("witness.verify_finite_certificate", 0.0), "s"),
        "witness.finite_verify_conjugations": (
            c["witness.finite_verify_conjugations"] / executions,
            "count",
        ),
        "witness.infinite_verify_s": (infinite_s, "s"),
        "witness.members": (c["witness.members"] / executions, "count"),
        "witness.members_per_s": (
            c["witness.members"] / executions / infinite_s if infinite_s else 0.0,
            "1/s",
        ),
        "oracle.lower_bound_s": (oracle_s, "s"),
        "oracle.enumerations": (c["oracle.enumerations"] / executions, "count"),
        "oracle.conjugates": (c["oracle.conjugates"] / executions, "count"),
        "oracle.conjugates_per_s": (
            c["oracle.conjugates"] / executions / oracle_s if oracle_s else 0.0,
            "1/s",
        ),
        "oracle.conjugates_per_target": (
            c["oracle.built_for_target"] / c["oracle.asked"] if c["oracle.asked"] else 0.0,
            "ratio",
        ),
        "wreath.multiply_calls": (c["wreath.multiply_calls"] / executions, "count"),
        "wreath.conjugate_calls": (c["wreath.conjugate_calls"] / executions, "count"),
        "wreath.multiply_us": (multiply_us(tracer.pairs), "us"),
        "groups.multiply_calls": (c["groups.multiply_calls"] / executions, "count"),
        "groups.ball_stream_items": (c["groups.ball_stream_items"] / executions, "count"),
        "qsets.act_calls": (c["qsets.act_calls"] / executions, "count"),
        "trace.run_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in per.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wricc" / "__init__.py").is_file():
        fail(f"no wricc sources under {SRC}: run from the root of a wricc checkout")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    try:
        wricc, cli, specs, _, _ = setup(workload)
    except ImportError as e:
        fail(f"cannot import wricc: {e}")
    if not Path(wricc.__file__).resolve().is_relative_to(SRC):
        fail(f"imported wricc from {wricc.__file__}, not from {SRC}")
    ctx = Context(wricc, cli, specs, ROOT)
    setup_rss_mb = peak_rss_mb()  # the interpreter, the benchmark and one wricc
    setups = []  # scaled (import, parse) times

    rng = random.Random(args.seed)
    rounds = [workload.make_round(rng, ctx) for _ in range(ROUNDS_PER_PASS)]
    tally = Tally()
    tracer = Tracer() if args.trace else None
    modes = [False, True] if tracer else [False]  # untraced, traced
    # per mode and round, one list of scaled (and raw) operation times per
    # pass; per round, one dict of scaled span self times per traced pass
    times = {m: [[] for _ in rounds] for m in modes}
    raw = {m: [[] for _ in rounds] for m in modes}
    span_times = [[] for _ in rounds]
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < args.seconds:
        for i, ops in enumerate(rounds):
            setups.append(time_setup(workload))
            for traced in modes if (passes + i) % 2 == 0 else modes[::-1]:
                mark = len(tracer.spans) if traced else 0
                r, t, results = run_round(ops, tracer if traced else None)
                raw[traced][i].append(r)
                times[traced][i].append(t)
                if traced:
                    factor = sum(t) / sum(r)
                    selfs = tracer.self_times(mark)
                    span_times[i].append({k: v * factor for k, v in selfs.items()})
                tally.check(ops, results)
        passes += 1

    def per_op(samples):  # median over the passes of each operation
        return [statistics.median(col) for passes_ in samples for col in zip(*passes_)]

    def round_s(traced):  # mean over the rounds of the median round time
        return statistics.mean(statistics.median(map(sum, ps)) for ps in times[traced])

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(i + p for i, p in setups), "unit": "s"},
            "run_s": {"value": round_s(False), "unit": "s"},
            "op_p50_s": {"value": statistics.median(per_op(times[False])), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    else:
        names = {name for ps in span_times for d in ps for name in d}
        selfs = {
            n: statistics.mean(statistics.median(d.get(n, 0.0) for d in ps) for ps in span_times)
            for n in names
        }
        metrics = layer_metrics(
            tracer,
            passes * len(rounds),
            selfs,
            round_s(True),
            round_s(False),
            statistics.median(p for _, p in setups),
            statistics.median(i for i, _ in setups),
        )
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    labels = [op.label for ops in rounds for op in ops]
    detail = {
        "passes": passes,
        "setup_rss_mb": setup_rss_mb,
        "setups_scaled_s": setups,
        "ops": {
            f"trace{int(m)}": list(zip(labels, per_op(raw[m]), per_op(times[m]))) for m in modes
        },
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        summary = {
            "round_executions": passes * len(rounds),
            "self_s": tracer.self_times(),
            "counts": dict(tracer.counts),
        }
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", vars(args), summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
