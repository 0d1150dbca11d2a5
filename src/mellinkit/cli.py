"""Command-line surface.

Subcommands:

    verify       one identity over an s grid
    verify-all   every registered identity on default grids
    mellin       ad-hoc transform of a registered identity LHS or of a
                 kernel/coefficient pair, closed forms from the registry
    interp       sequence interpolation from CSV/JSON input
    props        inequality property checks of a kernel representation
    conjecture   cosecant-power conjecture run
    list         registry listing

Exit codes: 0 all pass, 1 at least one identity/property failed, 2 usage or
configuration error, 3 numeric non-convergence in an ad-hoc computation.

Reports go to stdout (or --output); they are byte-stable: fixed field
order, floats at 17 significant digits, no timestamps. Diagnostics go to
stderr only.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys

from . import harness, interp
from .errors import (ConvergenceError, MellinkitError, StripViolationError,
                     UnknownIdError)
from .mellin import MAX_EVALS, _outcome, mellin_on_series
# kept as cli.mellin_oscillatory: perfbench/test_perfbench.py checks that
# the benchmark's tracer restores this binding
from .mellin import mellin_oscillatory  # noqa: F401

SCHEMA_VERSION = "1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

TOL_MIN, TOL_MAX = 1e-14, 1e-2


# ---------------------------------------------------------------------------
# canonical report rendering (byte-stable)

def _fmt_float(v) -> str:
    if v is None or isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return "null"
    return format(float(v), ".17g")


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return '"' + out + '"'
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(
            render_json(str(k)) + ":" + render_json(v) for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _sample_doc(r: harness.SampleResult) -> dict:
    doc = {
        "s_re": r.s.real, "s_im": r.s.imag,
        "lhs_re": None if math.isnan(r.lhs.real) else r.lhs.real,
        "lhs_im": None if math.isnan(r.lhs.real) else r.lhs.imag,
        "rhs_re": r.rhs.real, "rhs_im": r.rhs.imag,
        "rel_err": None if math.isinf(r.rel_err) else r.rel_err,
        "err_abs": None if math.isinf(r.err_abs) else r.err_abs,
        "n_evals": r.n_evals,
    }
    if r.error is not None:
        doc["error"] = r.error
    return doc


def _adhoc_sample(s, lhs, err_abs=None, n_evals: int = 0) -> dict:
    """A sample of an ad-hoc command: a value with no right-hand side."""
    s, lhs = complex(s), complex(lhs)
    return {
        "s_re": s.real, "s_im": s.imag,
        "lhs_re": lhs.real, "lhs_im": lhs.imag,
        "rhs_re": None, "rhs_im": None,
        "rel_err": None, "err_abs": err_abs, "n_evals": n_evals,
    }


def _case_doc(report: harness.IdentityReport) -> dict:
    return {
        "id": report.id,
        "samples": [_sample_doc(r) for r in report.samples],
        "max_rel_err": None if math.isinf(report.max_rel_err) else report.max_rel_err,
        "pass": report.passed,
        "expected_status": report.expected_status,
        "note": report.note,
    }


def _document(command: str, cases: list) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "cases": cases}


def _render_text(doc: dict) -> str:
    lines = [f"# mellinkit report (schema {doc['schema_version']}, command {doc['command']})"]
    for case in doc["cases"]:
        status = "PASS" if case.get("pass") else "FAIL"
        extra = case.get("expected_status", "")
        lines.append(f"{status} {case['id']} [{extra}]"
                     f" max_rel_err={_fmt_float(case.get('max_rel_err'))}")
        for s in case.get("samples", []):
            if "error" in s:
                lines.append(f"    s={_fmt_float(s['s_re'])}+{_fmt_float(s['s_im'])}i"
                             f"  ERROR {s['error']}")
            else:
                lines.append(
                    f"    s={_fmt_float(s['s_re'])}+{_fmt_float(s['s_im'])}i"
                    f"  lhs={_fmt_float(s['lhs_re'])}+{_fmt_float(s['lhs_im'])}i"
                    f"  rhs={_fmt_float(s['rhs_re'])}+{_fmt_float(s['rhs_im'])}i"
                    f"  rel_err={_fmt_float(s['rel_err'])}"
                    f"  n_evals={s['n_evals']}")
        note = case.get("note")
        if note:
            lines.append(f"    note: {note}")
    return "\n".join(lines) + "\n"


def _render_list_text(doc: dict) -> str:
    return "\n".join(
        f"{c['id']:30s} [{c['expected_status']}] "
        f"strip=({_fmt_float(c['strip_lo'])},{_fmt_float(c['strip_hi'])}) "
        f"tags={','.join(c['tags'])}" for c in doc["cases"]) + "\n"


def _emit(doc: dict, args, render_text=_render_text) -> None:
    text = render_json(doc) + "\n" if args.format == "json" else render_text(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument handling

def _parse_s_spec(spec: str):
    """One --s value: '0.5', '0.2:0.8:7' (lo:hi:count) or '0.5+0.2i'.
    Every point must be finite."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be lo:hi:count, got {spec!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid spec needs at least one point")
        if count == 1:
            pts = [lo]
        else:
            pts = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    elif spec.endswith("i"):
        pts = [complex(spec.replace(" ", "")[:-1] + "j")]
    else:
        pts = [float(spec)]
    if not all(cmath.isfinite(s) for s in pts):
        raise ValueError(f"s must be finite, got {spec!r}")
    return pts


def _collect_grid(args):
    if not args.s:
        return None
    grid: list = []
    for spec in args.s:
        grid.extend(_parse_s_spec(spec))
    return grid


def _check_tol(tol: float) -> float:
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tolerance must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol:g}")
    return tol


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process;
    every call shares it, so no caller may add to it."""
    p = argparse.ArgumentParser(
        prog="mellinkit",
        description="Numerical Mellin-transform identities of meromorphic kernels")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_grid=True):
        if with_grid:
            sp.add_argument("--s", action="append", metavar="SPEC",
                            help="s value, grid lo:hi:count, or complex a+bi "
                                 "(repeatable)")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--output", default=None, metavar="PATH")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("verify", help="verify one identity")
    sp.add_argument("--identity", required=True)
    common(sp)

    sp = sub.add_parser("verify-all", help="verify every registered identity")
    sp.add_argument("--tol-override", action="append", default=[],
                    metavar="ID=TOL")
    common(sp, with_grid=False)

    sp = sub.add_parser("mellin", help="ad-hoc Mellin transform")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity")
    group.add_argument("--kernel")
    sp.add_argument("--coeff", default=None)
    sp.add_argument("--max-evals", type=int, default=None,
                    help="override the evaluation budget")
    common(sp)

    sp = sub.add_parser("interp", help="interpolate a sequence")
    sp.add_argument("--input", required=True, metavar="FILE.csv|FILE.json")
    sp.add_argument("--normalization", choices=interp.NORMALIZATIONS,
                    default=None, help="required for CSV input")
    sp.add_argument("--closed-form", default=None, metavar="NAME")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--extended", type=int, default=0, metavar="N")
    common(sp)

    sp = sub.add_parser("props", help="inequality property checks")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--check", required=True,
                    choices=("logconvexity", "supermultiplicative", "weight"))
    sp.add_argument("--m", type=float, default=1.0,
                    help="shift for the supermultiplicative check")
    sp.add_argument("--a", type=float, default=0.5,
                    help="convexity weight for the logconvexity check")
    common(sp, with_grid=False)

    sp = sub.add_parser("conjecture", help="cosecant-power conjecture run")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--g", required=True, metavar="COEFF_ID")
    common(sp)

    sp = sub.add_parser("list", help="list registered identities")
    sp.add_argument("--output", default=None)
    sp.add_argument("--format", choices=("json", "text"), default="json")

    return p


# ---------------------------------------------------------------------------
# command implementations

def _cmd_verify(args) -> int:
    grid = _collect_grid(args)
    tol = _check_tol(args.tol) if args.tol is not None else None
    report = harness.verify(args.identity, s_grid=grid, tol=tol)
    _emit(_document("verify", [_case_doc(report)]), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_verify_all(args) -> int:
    overrides = {}
    for spec in args.tol_override:
        if "=" not in spec:
            raise ValueError(f"tolerance override must be ID=TOL, got {spec!r}")
        key, val = spec.split("=", 1)
        overrides[key] = _check_tol(float(val))
    if args.tol is not None:
        tol = _check_tol(args.tol)
        for cid, _, _, _ in harness.list_identities():
            overrides.setdefault(cid, tol)
    reports = harness.verify_all(overrides)
    _emit(_document("verify-all", [_case_doc(r) for r in reports]), args)
    return EXIT_PASS if harness.aggregate_pass(reports) else EXIT_FAIL


def _mellin_runner(args, tol, grid):
    """(label, per s of ``grid`` its QuadResult or error) for an identity's
    lhs, computed in one run, or for the series of a kernel and a
    coefficient (default g = 1), one transform per s. Every s of ``grid`` is
    checked first: against the identity's strip, with
    ``harness.EDGE_MARGIN`` as in ``verify``, or against the strip of the
    representation."""
    max_evals = MAX_EVALS if args.max_evals is None else args.max_evals
    if max_evals < 1:
        raise ValueError(f"--max-evals must be at least 1, got {max_evals}")
    if args.identity:
        case = harness.get_case(args.identity)
        harness.check_in_strip(case, grid)
        return f"mellin:{args.identity}", case.lhs(grid, tol, max_evals)
    coeff = args.coeff or "const_one"
    h = harness.representation_handle(args.kernel, coeff)
    for s in grid:
        harness.check_representable(args.kernel, s, coeff)
    label = f"mellin:{args.kernel}" + (f":{args.coeff}" if args.coeff else "")
    return label, (mellin_on_series(h, s, tol, max_evals) for s in grid)


def _cmd_mellin(args) -> int:
    tol = _check_tol(args.tol) if args.tol is not None else 1e-10
    grid = _collect_grid(args) or [0.5]
    label, outcomes = _mellin_runner(args, tol, grid)
    samples = []
    any_failed = False
    for s, q in zip(grid, outcomes):
        q = _outcome(q)
        if not q.converged:
            any_failed = True
        samples.append(_adhoc_sample(s, q.value, q.err_abs, q.n_evals))
    case_doc = {"id": label, "samples": samples, "max_rel_err": None,
                "pass": not any_failed, "expected_status": "ad-hoc", "note": ""}
    _emit(_document("mellin", [case_doc]), args)
    return EXIT_PASS if not any_failed else EXIT_NUMERIC


def _load_sequence(args) -> interp.SequenceData:
    path = args.input
    if path.endswith(".json"):
        seq = interp.sequence_from_json(path)
        if args.closed_form:
            seq = interp.SequenceData(seq.values, seq.normalization,
                                      interp.closed_form(args.closed_form))
        return seq
    if path.endswith(".csv"):
        if args.normalization is None:
            raise ValueError("CSV input needs an explicit --normalization")
        return interp.sequence_from_csv(path, args.normalization, args.closed_form)
    raise ValueError(f"input must be .csv or .json, got {path!r}")


def _cmd_interp(args) -> int:
    tol = _check_tol(args.tol) if args.tol is not None else 1e-8
    grid = _collect_grid(args)
    if not grid:
        raise ValueError("interp needs at least one --s value")
    seq = _load_sequence(args)
    samples = []
    for s in grid:
        if args.extended:
            val = interp.interpolate_extended(seq, args.kernel, args.extended, s, tol)
        else:
            val = interp.interpolate(seq, args.kernel, s, tol)
        samples.append(_adhoc_sample(s, val))
    case_doc = {"id": f"interp:{args.kernel}:{seq.normalization}",
                "samples": samples, "max_rel_err": None, "pass": True,
                "expected_status": "ad-hoc",
                "note": f"normalization={seq.normalization}, extension={args.extended}"}
    _emit(_document("interp", [case_doc]), args)
    return EXIT_PASS


def _cmd_props(args) -> int:
    tol = _check_tol(args.tol) if args.tol is not None else 1e-9
    if args.check == "weight":
        w = interp.check_weight_nonneg(args.kernel)
        case_doc = {"id": f"props:weight:{args.kernel}", "samples": [],
                    "max_rel_err": None, "pass": w.nonnegative,
                    "expected_status": "ad-hoc",
                    "note": f"min weight {w.min_weight:.6g} at x={w.argmin:.6g}"}
        _emit(_document("props", [case_doc]), args)
        return EXIT_PASS if w.nonnegative else EXIT_FAIL
    if args.check == "logconvexity":
        rep = interp.check_logconvexity(args.kernel, interp.grid_pairs(a=args.a), tol)
    else:
        rep = interp.check_supermultiplicative(args.kernel, args.m,
                                               interp.grid_pairs_xy(), tol)
    samples = [_adhoc_sample(e.point[0], e.margin) for e in rep.entries]
    note = rep.skipped_reason or (
        f"min margin {rep.min_margin:.6g} at {rep.argmin}")
    case_doc = {"id": f"props:{rep.check}:{args.kernel}", "samples": samples,
                "max_rel_err": None, "pass": rep.passed,
                "expected_status": "ad-hoc", "note": note}
    _emit(_document("props", [case_doc]), args)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_conjecture(args) -> int:
    tol = _check_tol(args.tol) if args.tol is not None else 1e-6
    grid = _collect_grid(args)
    report = harness.verify_conjecture(args.m, args.g, s_grid=grid, tol=tol)
    _emit(_document("conjecture", [_case_doc(report)]), args)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_list(args) -> int:
    cases = [{
        "id": cid,
        "tags": list(tags),
        "strip_lo": strip.lo, "strip_hi": strip.hi,
        "expected_status": status,
    } for cid, tags, strip, status in harness.list_identities()]
    _emit(_document("list", cases), args, _render_list_text)
    return EXIT_PASS


_COMMANDS = {
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "mellin": _cmd_mellin,
    "interp": _cmd_interp,
    "props": _cmd_props,
    "conjecture": _cmd_conjecture,
    "list": _cmd_list,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (UnknownIdError, StripViolationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MellinkitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
