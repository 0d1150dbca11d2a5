"""mellinkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload grid|scan|diagnose --seed N \\
        --seconds S --trace 0|1

Run from the repository root. One process, one thread, closed loop: a
single caller sends the next operation only after the previous one has
returned. Operations are generated from the seed (see ``workloads``) and
run in-process through mellinkit's public functions; every result is
checked against an independent mpmath reference.

``--trace 0`` measures for ``--seconds`` of busy time, in whole rounds, and
reports the end-to-end metrics. ``--trace 1`` runs the first round of the
workload twice, untraced and then traced (see ``layertrace``), requires
both passes to give bit-identical results, and reports per-layer metrics;
it measures a fixed round so that its counts repeat exactly.

Reported times are calibrated to one machine speed (see ``calibrate``): op
times against a pure-Python chunk timed between ops, ``setup_s`` against
fixed standard-library imports timed between set-up probes. ``ok_frac`` is
1 - fail_frac, the share of ops whose outcome matched the reference.
``digits_min`` is the median over rounds of each round's worst digits: the
minimum over a whole run is an extreme value that moves with the seed and
the number of rounds a run reaches.

The timed ops avoid the inputs of the known defects in
``expectations.json``; after the measurement a fixed, untimed probe runs
those inputs once and the summary line says which defects are still
present. A run is ``correct`` if every timed op matched its reference and
every probe either reproduced its known defect or gave the right result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 7
#: a reported percentile needs this many ops beyond it, so p90 needs 100
TAIL_BEYOND = 10
P90_MIN_OPS = 10 * TAIL_BEYOND
#: op time between two machine-speed calibrations
CALIBRATE_EVERY_S = 0.5

_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")


def expectations() -> dict:
    with open(os.path.join(HERE, "expectations.json")) as fh:
        return json.load(fh)


def _probe(*args) -> float:
    out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), *args],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(cal, probes: int = SETUP_PROBES) -> float:
    """Median calibrated set-up time of ``probes`` fresh processes, each
    scaled by the mean of the baseline imports timed just before and after."""
    times = []
    before = _probe("baseline")
    for _ in range(probes):
        raw = _probe()
        after = _probe("baseline")
        times.append(raw * cal.IMPORT_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(times)


def tail_ms(times_ms: list) -> tuple:
    """(value, label) of the tail latency to report: the 90th percentile
    where at least ten ops lie beyond it (100 ops or more), otherwise the
    highest percentile that still has ten ops beyond it."""
    n = len(times_ms)
    if n >= P90_MIN_OPS:
        return statistics.quantiles(times_ms, n=10)[8], "p90"
    if n <= TAIL_BEYOND:
        return max(times_ms), "max"
    return sorted(times_ms)[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.0f}"


def run_rounds(wl, cal, workload: str, seed: int, seconds: float, workdir: str) -> list:
    """Closed loop over whole rounds until ``seconds`` of op time is spent.

    Returns (op, outcome, calibrated seconds) triples. The machine speed is
    calibrated after every CALIBRATE_EVERY_S of op time and at the end; the
    ops in between are scaled by the mean of the two calibrations around them.
    """
    for op in next(wl.rounds(workload, seed, "warmup")):
        wl.run_op(op, workdir)
    done, pending = [], []
    busy = since = 0.0
    last = cal.seconds()

    def flush(last):
        now = cal.seconds()
        scale = cal.NOMINAL_S / (0.5 * (last + now))
        done.extend((op, out, out.seconds * scale) for op, out in pending)
        pending.clear()
        return now

    for ops in wl.rounds(workload, seed):
        for op in ops:
            out = wl.run_op(op, workdir)
            pending.append((op, out))
            busy += out.seconds
            since += out.seconds
            if since >= CALIBRATE_EVERY_S:
                last, since = flush(last), 0.0
        if busy >= seconds:
            if pending:
                flush(last)
            return done


def judge(wl, done: list):
    """Check every op. Returns (verdicts, correct)."""
    verdicts = [wl.check(op, out) for op, out, *_ in done]
    for (op, *_), v in zip(done, verdicts):
        if not v.ok:
            print(f"FAILED {op.label}: {v.why}", file=sys.stderr)
    return verdicts, all(v.ok for v in verdicts)


def probe_defects(wl, workload: str, workdir: str, known: dict):
    """Run the known-defect probes. Returns (correct, state of each defect:
    "present" or "fixed")."""
    state, correct = {}, True
    for defect, op in wl.defect_probes(workload):
        assert defect in known, defect
        v = wl.check(op, wl.run_op(op, workdir))
        if v.ok:
            state.setdefault(defect, "fixed")
        elif v.defect == defect:
            state[defect] = "present"
        else:
            correct = False
            print(f"FAILED probe {op.label} ({defect}): {v.why}", file=sys.stderr)
    return correct, state


def end_to_end(done: list, verdicts: list, setup_s: float, round_size: int) -> tuple:
    """(metrics, note) of an untraced run of whole rounds of ``round_size``
    ops; op times are the calibrated ones."""
    times_ms = [1e3 * scaled for _, _, scaled in done]
    busy = sum(scaled for _, _, scaled in done)
    n_ok = sum(v.ok for v in verdicts)
    digs = [d for v in verdicts if v.ok for d in v.digits]
    round_worst = [min(d for v in verdicts[i:i + round_size] if v.ok for d in v.digits)
                   for i in range(0, len(verdicts), round_size)]
    tail, tail_label = tail_ms(times_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n_ok / busy, "1/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (tail, "ms"),
        "ok_frac": (n_ok / len(done), "fraction"),
        "digits_min": (statistics.median(round_worst), "digits"),
        "digits_p50": (statistics.median(digs), "digits"),
    }
    wall_per_calibrated = sum(out.seconds for _, out, _ in done) / busy
    note = (f"op_ms_p90 is the {tail_label} of {len(done)} ops"
            + ("" if tail_label == "p90" else f", not p90 (that needs {P90_MIN_OPS})")
            + f"; op times calibrated, wall/calibrated = {wall_per_calibrated:.3f}")
    return metrics, note


def traced_pass(wl, lt, harness, ops: list, workdir: str):
    tracer = lt.Tracer()
    tracer.install()
    try:
        harness.list_identities()  # rebuild the registry from traced objects
        tracer.reset()
        t0 = time.perf_counter()
        outcomes = []
        for op in ops:
            outcomes.append(wl.run_op(op, workdir))
            tracer.end_op()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return outcomes, wall, tracer


def per_layer(wl, lt, harness, workload: str, seed: int, workdir: str, expect: dict):
    ops = next(wl.rounds(workload, seed))
    for op in next(wl.rounds(workload, seed, "warmup")):
        wl.run_op(op, workdir)
    t0 = time.perf_counter()
    plain = [wl.run_op(op, workdir) for op in ops]
    plain_wall = time.perf_counter() - t0
    traced, traced_wall, tracer = traced_pass(wl, lt, harness, ops, workdir)
    for op, a, b in zip(ops, plain, traced):
        if wl.fingerprint(a) != wl.fingerprint(b):
            raise RuntimeError(f"tracing changed the result of {op.label}")
    metrics = {k: (v, expect["per_layer"][k]["unit"]) for k, v in tracer.metrics().items()}
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "fraction")
    for name, spec in expect["per_layer"].items():
        if workload in spec.get("nonzero_on", ()) and metrics[name][0] == 0:
            raise RuntimeError(f"{name} is 0 on {workload}, where the layer must work")
    return list(zip(ops, traced)), metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("grid", "scan", "diagnose"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mellinkit", "__init__.py")):
        print(f"perfbench: no mellinkit sources under {SRC}", file=sys.stderr)
        return 2
    for var in _BLAS_THREADS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import calibrate as cal
    import layertrace as lt
    import workloads as wl
    from mellinkit import harness

    expect = expectations()
    workdir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            harness.list_identities()
            done, metrics = per_layer(wl, lt, harness, args.workload, args.seed,
                                      workdir, expect)
            note = "traced the first round"
        else:
            setup_s = setup_seconds(cal)
            harness.list_identities()
            done = run_rounds(wl, cal, args.workload, args.seed, args.seconds, workdir)
        verdicts, correct = judge(wl, done)
        if not args.trace:
            round_size = len(next(wl.rounds(args.workload, args.seed)))
            metrics, note = end_to_end(done, verdicts, setup_s, round_size)
        probes_ok, defects = probe_defects(wl, args.workload, workdir,
                                           expect["known_defects"])
        correct = correct and probes_ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not v.ok for v in verdicts)
    print(f"workload {args.workload} seed {args.seed}: {len(done)} ops, "
          f"{failed} failed (fail_frac {failed / len(done):.4f}); {note}"
          + "".join(f"; known defect {d} {st}" for d, st in sorted(defects.items())))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
