"""Tests of the benchmark itself: seeded inputs, result checks, the
percentile rule and the tracer. Run from the repository root with
``python3 -m pytest -q perfbench``."""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from mellinkit import harness  # noqa: E402

CHEAP = ("mellin:gamma", "props:weight:gamma", "interp:csv:raw:pi_csc:closed")


def cheap_ops(seed):
    """A few fast ops of scan plus one grid op."""
    ops = [op for op in next(wl.rounds("scan", seed)) if op.label in CHEAP]
    ops += [op for op in next(wl.rounds("grid", seed)) if op.label == "verify:cos_mellin:1"]
    return ops


def s_values(ops):
    out = []
    for op in ops:
        if op.family in ("verify", "digamma"):
            out.extend(op.payload[1])
        elif "--s" in op.payload:
            out.append(op.payload[op.payload.index("--s") + 1])
    return out


def test_same_seed_same_inputs_other_seed_other_s():
    for workload in wl.WORKLOADS:
        first = next(wl.rounds(workload, 7))
        assert first == next(wl.rounds(workload, 7))
        other = s_values(next(wl.rounds(workload, 8)))
        assert s_values(first) and s_values(first) != other


def test_grid_avoids_the_csc_deriv_zero():
    op = next(op for op in next(wl.rounds("grid", 1)) if op.label == "verify:csc_deriv_rep:1")
    assert all(abs(s - wl.CSC_DERIV_ZERO) >= wl.ZERO_CLEARANCE for s in op.payload[1])


def test_traced_run_changes_no_result_and_counts_repeat(tmp_path):
    ops = cheap_ops(3)
    plain = [wl.fingerprint(wl.run_op(op, str(tmp_path))) for op in ops]
    counts = []
    for _ in range(2):
        outcomes, _, tracer = run.traced_pass(wl, layertrace, harness, ops, str(tmp_path))
        assert [wl.fingerprint(o) for o in outcomes] == plain
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    assert counts[0]["evals"] > 0 and counts[0]["transforms"] > 0
    # the from-imported bindings were wrapped too
    for edge in ("cli.main>mellin.mellin_on_series", "harness.verify>mellin.mellin_oscillatory",
                 "interp.interpolate>mellin.mellin_transform"):
        assert counts[0]["edges"].get(edge, 0) > 0, edge
    for key in ("harness.mellin_on_series", "cli.mellin_oscillatory",
                "interp.mellin_transform", "harness.verify", "cli.main"):
        mod, name = key.split(".")
        assert not hasattr(getattr(sys.modules[f"mellinkit.{mod}"], name), "__wrapped__")


def test_perturbed_result_counts_as_failed(tmp_path):
    ops = {op.label: op for op in cheap_ops(5)}
    op = ops["verify:cos_mellin:1"]
    out = wl.run_op(op, str(tmp_path))
    assert wl.check(op, out).ok
    rep = out.result
    bad = dataclasses.replace(rep, samples=tuple(
        dataclasses.replace(r, lhs=r.lhs * (1 + 1e-3)) for r in rep.samples))
    assert not wl.check(op, wl.Outcome(bad, out.seconds)).ok

    op = ops["mellin:gamma"]
    out = wl.run_op(op, str(tmp_path))
    assert wl.check(op, out).ok
    rc, stdout, stderr = out.result
    doc = json.loads(stdout)
    doc["cases"][0]["samples"][0]["lhs_re"] *= 1 + 1e-6
    verdict = wl.check(op, wl.Outcome((rc, json.dumps(doc), stderr), out.seconds))
    assert not verdict.ok and verdict.defect is None


def test_known_defects_are_probed_not_timed(tmp_path):
    probes = wl.defect_probes("scan")
    known = run.expectations()["known_defects"]
    assert {defect for defect, _ in probes} == set(known)
    for defect, op in probes:
        if defect in ("csc_pow_normalisation", "interp_json_path"):
            verdict = wl.check(op, wl.run_op(op, str(tmp_path)))
            assert not verdict.ok and verdict.defect == defect
    timed = [op.label for op in next(wl.rounds("scan", 5))]
    assert not any("pi_csc_pow" in label or ":json:" in label for label in timed)


def test_p90_needs_ten_ops_beyond_it():
    times = [float(i) for i in range(1, 100)]
    assert run.tail_ms(times) == (89.0, "p90")  # ten ops lie beyond 89
    assert run.tail_ms(times[:33]) == (23.0, "p70")
    assert run.tail_ms(times[:10]) == (10.0, "max")
    times.append(100.0)
    assert run.tail_ms(times) == (statistics.quantiles(times, n=10)[8], "p90")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""
