"""The benchmark's seeded operations: how each workload generates them, how
one is run through mellinkit's public functions, and how its result is
checked against ``reference``.

A workload is an endless sequence of rounds. A round is a fixed list of
operation families, each drawn with fresh seeded parameters, so every round
has the same mix and a run that stops on a round boundary always measures
the same proportions of cheap and expensive operations.

The timed rounds hold only inputs that the program handles correctly, so
no timed operation fails. Inputs that hit a known defect (see
``expectations.json``) are kept out of them and run instead as a fixed,
untimed probe (``defect_probes``), which reports for each known defect
whether it is still present.

The caller must put mellinkit's sources on ``sys.path`` before importing
this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Optional

from mellinkit import cli, errors, harness

import reference

WORKLOADS = ("grid", "scan", "diagnose")

#: real points per ``verify`` grid; two off-axis points are added
GRID_REAL_POINTS = 12
#: csc_deriv_rep:1 has a zero of its right-hand side at s = 1/2
CSC_DERIV_ZERO, ZERO_CLEARANCE = 0.5, 0.05
#: coefficients in each generated interp sequence file
SEQUENCE_LENGTH = 80
#: inverse golden ratio: consecutive rounds of ``diagnose`` cover the strip
#: evenly, whatever the number of rounds a run reaches
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: the pi_csc_pow:m kernels are probed only (defect csc_pow_normalisation)
MELLIN_KERNELS = ("gamma", "pi_csc", "gamma_squared", "gamma_cos_half",
                  "gamma_deriv:1", "gamma_deriv:2", "pi_csc_deriv:1",
                  "pi_csc_deriv:2")
PROPS_KERNELS = ("gamma", "gamma_squared", "pi_csc")
#: largest s of a certified interp op; above it the certified path can miss
#: its tolerance (defect interp_head_cancellation)
CERTIFIED_S_MAX = 0.6
#: no supermultiplicative shift m with m or m + 0.4 this close below the
#: upper edge of the kernel's strip (defect props_strip_checked_late)
EDGE_CLEARANCE = 0.05

#: tolerances the checks allow, as relative errors
MELLIN_TOL = 1e-8      # the command integrates at 1e-10
INTERP_TOL = 1e-7      # the command integrates at 1e-8
MARGIN_TOL = 1e-8      # of the larger term of a property margin
WEIGHT_TOL = 1e-5      # the note prints six significant digits
DIGAMMA_RHS_TOL = 1e-10
#: largest error still explained by cancellation in the certified interp
#: path's alternating partial sums
CANCELLATION_MAX = 1e-5

# the documented default property grids (interp.grid_pairs / grid_pairs_xy)
_PAIR_POINTS = tuple(0.2 + 2.3 * i / 4 for i in range(5))
_WEIGHT_GRID = tuple(0.01 * 1.35 ** i for i in range(30))


@dataclass(frozen=True)
class Op:
    """One operation: what to call, and what the check needs to know.

    ``payload`` is ``(identity id, s grid)`` for the ``verify`` and
    ``digamma`` families and a command line for every other family. In a
    command line, an argument ``@name`` stands for the file ``name`` of
    ``files`` inside the run's work directory.
    """

    family: str
    label: str
    payload: tuple
    expect: tuple = ()
    files: tuple = ()


@dataclass(frozen=True)
class Outcome:
    """What the program returned, and how long the call took."""

    result: object  # IdentityReport, (exit code, stdout, stderr) or ("raised", ...)
    seconds: float


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: tuple = ()
    defect: Optional[str] = None  # id of the known defect that explains a failure
    why: str = ""


# ---------------------------------------------------------------------------
# generation

def rounds(workload: str, seed: int, stream: str = "timed"):
    """The endless, seeded sequence of rounds of one workload."""
    rng = random.Random(f"{workload}:{seed}:{stream}")
    if workload == "grid":
        while True:
            yield _grid_round(rng)
    elif workload == "scan":
        r = 0
        while True:
            yield _scan_round(rng, r)
            r += 1
    elif workload == "diagnose":
        offsets = [rng.random() for _ in range(3)]
        r = 0
        while True:
            yield _diagnose_round(offsets, r)
            r += 1
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _inset(lo: float, hi: float) -> tuple:
    w = hi - lo
    return lo + 0.1 * w, hi - 0.1 * w


def s_grid(rng: random.Random, lo: float, hi: float, avoid: Optional[float] = None) -> list:
    """A jittered grid of real points on the 10%-inset strip, plus one point
    above and one below the real axis; no point within ZERO_CLEARANCE of
    ``avoid``."""
    a, b = _inset(lo, hi)
    pts = []
    for i in range(GRID_REAL_POINTS):
        while True:
            s = a + (b - a) * (i + rng.random()) / GRID_REAL_POINTS
            if avoid is None or abs(s - avoid) >= ZERO_CLEARANCE:
                break
        pts.append(s)
    for sign in (1.0, -1.0):
        pts.append(complex(a + (b - a) * rng.random(), sign * (0.1 + 0.2 * rng.random())))
    return pts


def _grid_round(rng: random.Random) -> list:
    ops = []
    for ident, (lo, hi, tol, _) in reference.IDENTITIES.items():
        avoid = CSC_DERIV_ZERO if ident == "csc_deriv_rep:1" else None
        grid = tuple(s_grid(rng, lo, hi, avoid))
        ops.append(Op("verify", f"verify:{ident}", (ident, grid), (tol,)))
    return ops


def _uniform_s(rng: random.Random, avoid: Optional[float] = None) -> float:
    while True:
        s = 0.1 + 0.8 * rng.random()
        if avoid is None or abs(s - avoid) >= ZERO_CLEARANCE:
            return s


def _shift(rng: random.Random, edge: float) -> float:
    """A shift m in [0.25, 2) whose first evaluated points, m and m + 0.4,
    do not lie within EDGE_CLEARANCE below the strip edge ``edge``."""
    while True:
        m = 0.25 + 1.75 * rng.random()
        if all(not edge - EDGE_CLEARANCE < t < edge for t in (m, m + 0.4)):
            return m


def _sequence_files(stem: str, a: float, normalization: str, cf: Optional[str]):
    values = [a ** k for k in range(SEQUENCE_LENGTH)]
    csv_text = "k,c_k\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(values))
    doc = {"values": values, "normalization": normalization}
    if cf is not None:
        doc["closed_form"] = cf
    return (f"{stem}.csv", csv_text), (f"{stem}.json", json.dumps(doc))


def _scan_round(rng: random.Random, r: int) -> list:
    ops = []
    for k in MELLIN_KERNELS:
        s = _uniform_s(rng, CSC_DERIV_ZERO if k == "pi_csc_deriv:1" else None)
        ops.append(Op("mellin", f"mellin:{k}", ("mellin", "--kernel", k, "--s", repr(s)), (k, s)))
    for k in PROPS_KERNELS:
        a = 0.1 + 0.8 * rng.random()
        ops.append(Op("logconvexity", f"props:logconvexity:{k}",
                      ("props", "--kernel", k, "--check", "logconvexity", "--a", repr(a)),
                      (k, a)))
        m = _shift(rng, reference.REPRESENTATION_STRIP[k][1])
        ops.append(Op("supermultiplicative", f"props:supermultiplicative:{k}",
                      ("props", "--kernel", k, "--check", "supermultiplicative",
                       "--m", repr(m)), (k, m)))
        ops.append(Op("weight", f"props:weight:{k}",
                      ("props", "--kernel", k, "--check", "weight"), (k,)))
    # (normalization, kernel, closed form): c_k = a^k gives g(-s) = a^(-s)
    variants = (("factorial", "gamma", None),
                ("factorial", "gamma", "exp_neg_ax"),
                ("raw", "pi_csc", "inv_one_plus_ax"))
    for j, (norm, kern, cf) in enumerate(variants):
        a = 0.5 + 1.5 * rng.random()
        s = _uniform_s(rng) if cf else 0.1 + (CERTIFIED_S_MAX - 0.1) * rng.random()
        ops.append(_interp_op(f"r{r}_{j}", "csv", a, s, norm, kern, cf))
    return ops


def _interp_op(stem: str, fmt: str, a: float, s: float, norm: str, kern: str,
               cf: Optional[str]) -> Op:
    cf_id = None if cf is None else f"{cf}:{a!r}"
    csv_file, json_file = _sequence_files(stem, a, norm, cf_id)
    argv = ["interp", "--input", f"@{stem}.{fmt}", "--kernel", kern, "--s", repr(s)]
    if fmt == "csv":
        argv += ["--normalization", norm]
        if cf_id is not None:
            argv += ["--closed-form", cf_id]
    label = f"interp:{fmt}:{norm}:{kern}:{'closed' if cf else 'certified'}"
    return Op("interp", label, tuple(argv), (fmt, a, s, cf is None),
              (csv_file if fmt == "csv" else json_file,))


def defect_probes(workload: str) -> list:
    """(defect id, op) pairs: fixed inputs that hit each known defect at
    seed. Not timed and not counted as attempted ops."""
    if workload != "scan":
        return []
    return [
        ("csc_pow_normalisation", Op("mellin", "mellin:pi_csc_pow:2",
                                     ("mellin", "--kernel", "pi_csc_pow:2", "--s", "0.3"),
                                     ("pi_csc_pow:2", 0.3))),
        ("csc_pow_normalisation", Op("mellin", "mellin:pi_csc_pow:3",
                                     ("mellin", "--kernel", "pi_csc_pow:3", "--s", "0.3"),
                                     ("pi_csc_pow:3", 0.3))),
        ("interp_json_path", _interp_op("probe_json", "json", 1.5, 0.4, "raw", "pi_csc",
                                        "inv_one_plus_ax")),
        ("interp_head_cancellation", _interp_op("probe_certified", "csv", 1.9, 0.9,
                                                "factorial", "gamma", None)),
        ("props_strip_checked_late", Op("supermultiplicative",
                                        "props:supermultiplicative:pi_csc",
                                        ("props", "--kernel", "pi_csc", "--check",
                                         "supermultiplicative", "--m", "0.99"),
                                        ("pi_csc", 0.99))),
    ]


def _diagnose_round(offsets: list, r: int) -> list:
    u = [(o + r * _GOLDEN) % 1.0 for o in offsets]
    s_dig = 0.1 + 0.8 * u[0]
    s_psi = 0.1 + 0.8 * u[1]
    sigma = 1.1 + 0.8 * u[2]
    return [
        Op("digamma", "verify:digamma_corollary", ("digamma_corollary", (s_dig,))),
        Op("mellin_diag", "mellin:psi", ("mellin", "--kernel", "psi", "--s", repr(s_psi)), (3,)),
        Op("mellin_diag", "mellin:pi_csc:sigma>1",
           ("mellin", "--kernel", "pi_csc", "--s", repr(sigma)), (None,)),
    ]


# ---------------------------------------------------------------------------
# execution

def run_op(op: Op, workdir: str) -> Outcome:
    """Run one operation in-process; only the program call is timed."""
    for name, text in op.files:
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    if op.family in ("verify", "digamma"):
        ident, grid = op.payload
        t0 = time.perf_counter()
        try:
            result = harness.verify(ident, s_grid=list(grid))
        except Exception as exc:  # recorded as a failed op, never fatal
            result = ("raised", type(exc).__name__, str(exc))
        return Outcome(result, time.perf_counter() - t0)
    argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in op.payload]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # cli.main should map every error to an exit code
            rc = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return Outcome((rc, out.getvalue(), err.getvalue()), seconds)


def fingerprint(outcome: Outcome):
    """Everything the traced run must reproduce exactly: value bits,
    evaluation counts, exit codes and error classes."""
    res = outcome.result
    if isinstance(res, harness.IdentityReport):
        return (res.passed, tuple(
            (r.s.real.hex(), r.s.imag.hex(), r.lhs.real.hex(), r.lhs.imag.hex(),
             r.n_evals, r.converged, r.error) for r in res.samples))
    return res


# ---------------------------------------------------------------------------
# checks

def check(op: Op, outcome: Outcome) -> Verdict:
    res = outcome.result
    if isinstance(res, tuple) and res and res[0] == "raised":
        return Verdict(False, why=f"raised {res[1]}: {res[2]}")
    try:
        return _CHECKS[op.family](op, res)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(False, why=f"unreadable output ({type(exc).__name__}: {exc})")


def _check_verify(op: Op, rep) -> Verdict:
    ident, _ = op.payload
    (tol,) = op.expect
    rhs_fn = reference.IDENTITIES[ident][3]
    if not rep.passed:
        return Verdict(False, why=f"{ident} did not pass (max_rel_err {rep.max_rel_err:.3e})")
    digs = []
    for r in rep.samples:
        if not r.ok:
            return Verdict(False, why=f"{ident} sample s={r.s} failed: {r.error}")
        want = reference.value(rhs_fn, r.s)
        err = reference.rel_err(r.lhs, want)
        if err > tol or reference.rel_err(r.rhs, want) > tol:
            return Verdict(False, why=f"{ident} at s={r.s}: lhs {r.lhs} rhs {r.rhs}, want {want}")
        digs.append(reference.digits(err))
    return Verdict(True, tuple(digs))


def _check_digamma(op: Op, rep) -> Verdict:
    if rep.passed:
        return Verdict(False, why="digamma_corollary passed; a diagnostic was expected")
    digs = []
    for r in rep.samples:
        name = (r.error or "").split(":", 1)[0]
        cls = getattr(errors, name, None)
        if not (isinstance(cls, type) and issubclass(cls, errors.ConvergenceError)):
            return Verdict(False, why=f"s={r.s}: expected a ConvergenceError, got {r.error!r}")
        err = reference.rel_err(r.rhs, reference.digamma(r.s))
        if err > DIGAMMA_RHS_TOL:
            return Verdict(False, why=f"s={r.s}: rhs {r.rhs} is not digamma(s)")
        digs.append(reference.digits(err))
    return Verdict(True, tuple(digs))


def _first_sample(stdout: str) -> dict:
    return json.loads(stdout)["cases"][0]["samples"][0]


def _check_mellin(op: Op, res) -> Verdict:
    rc, stdout, stderr = res
    kern, s = op.expect
    if rc != 0:
        return Verdict(False, why=f"exit {rc}: {stderr.strip()}")
    sample = _first_sample(stdout)
    got = complex(sample["lhs_re"], sample["lhs_im"])
    want = reference.value(reference.KERNELS[kern], s)
    err = reference.rel_err(got, want)
    if err <= MELLIN_TOL:
        return Verdict(True, (reference.digits(err),))
    why = f"{kern} at s={s}: got {got.real!r}, want {want.real!r}"
    if kern.startswith("pi_csc_pow:"):
        m = int(kern.split(":")[1])
        factor = (-1.0) ** (m - 1) * math.factorial(m - 1)
        if reference.rel_err(got, factor * want) <= MELLIN_TOL:
            return Verdict(False, defect="csc_pow_normalisation", why=why)
    return Verdict(False, why=why)


def _check_mellin_diag(op: Op, res) -> Verdict:
    rc, _, stderr = res
    (want_rc,) = op.expect
    if rc == 0 or (want_rc is not None and rc != want_rc):
        return Verdict(False, why=f"exit {rc}, expected {want_rc or 'non-zero'}")
    if not stderr.strip():
        return Verdict(False, why=f"exit {rc} without a diagnostic on stderr")
    return Verdict(True)


def _h(kern: str):
    fn = reference.KERNELS[kern]
    return lambda t: reference.value(fn, t).real


def _outside_strip(kern: str, points) -> bool:
    lo, hi = reference.REPRESENTATION_STRIP[kern]
    return any(not lo < t < hi for t in points)


def _check_margins(res, want: list, scale: list) -> Verdict:
    rc, stdout, stderr = res
    want_rc = 0 if min(want) >= -1e-9 else 1
    if rc != want_rc:
        return Verdict(False, why=f"exit {rc}, expected {want_rc}: {stderr.strip()}")
    samples = json.loads(stdout)["cases"][0]["samples"]
    if len(samples) != len(want):
        return Verdict(False, why=f"{len(samples)} margins, expected {len(want)}")
    digs = []
    for sample, w, sc in zip(samples, want, scale):
        err = abs(sample["lhs_re"] - w) / sc
        if err > MARGIN_TOL:
            return Verdict(False, why=f"margin {sample['lhs_re']!r}, want {w!r}")
        digs.append(reference.digits(err))
    return Verdict(True, tuple(digs))


def _check_usage_error(res) -> Verdict:
    rc, _, stderr = res
    if rc == 2 and stderr.startswith("error:"):
        return Verdict(True)
    why = f"exit {rc}; expected exit 2 with a strip diagnostic: {stderr.strip()}"
    if rc == 3 and stderr.startswith("numeric failure:"):
        return Verdict(False, defect="props_strip_checked_late", why=why)
    return Verdict(False, why=why)


def _check_logconvexity(op: Op, res) -> Verdict:
    kern, a = op.expect
    b = 1.0 - a
    pairs = [(x, y) for x in _PAIR_POINTS for y in _PAIR_POINTS]
    if _outside_strip(kern, [t for x, y in pairs for t in (x, y, a * x + b * y)]):
        return _check_usage_error(res)
    h = _h(kern)
    want, scale = [], []
    for x, y in pairs:
        top = h(x) ** a * h(y) ** b
        want.append(top - h(a * x + b * y))
        scale.append(max(1.0, abs(top)))
    return _check_margins(res, want, scale)


def _check_supermultiplicative(op: Op, res) -> Verdict:
    kern, m = op.expect
    pairs = [(x, y) for x in _PAIR_POINTS for y in _PAIR_POINTS]
    if _outside_strip(kern, [t + m for x, y in pairs for t in (x, y, x + y)] + [m]):
        return _check_usage_error(res)
    h = _h(kern)
    hm0 = h(m)

    def hm(t):
        return 1.0 if t == 0.0 else h(t + m) / hm0

    want, scale = [], []
    for x, y in pairs:
        prod = hm(x) * hm(y)
        want.append(hm(x + y) - prod)
        scale.append(max(1.0, abs(prod)))
    return _check_margins(res, want, scale)


def _check_weight(op: Op, res) -> Verdict:
    rc, stdout, stderr = res
    (kern,) = op.expect
    w = reference.WEIGHTS[kern]
    best = min(reference.value(w, x).real for x in _WEIGHT_GRID)
    want_rc = 0 if best >= -1e-12 else 1
    if rc != want_rc:
        return Verdict(False, why=f"exit {rc}, expected {want_rc}: {stderr.strip()}")
    note = json.loads(stdout)["cases"][0]["note"]
    got = float(note.split()[2])  # "min weight <w> at x=<x>"
    if reference.rel_err(got, best) > WEIGHT_TOL:
        return Verdict(False, why=f"min weight {got!r}, want {best!r}")
    return Verdict(True)  # six printed digits say nothing about accuracy


def _check_interp(op: Op, res) -> Verdict:
    rc, stdout, stderr = res
    fmt, a, s, certified = op.expect
    if rc != 0:
        why = f"exit {rc}: {stderr.strip()}"
        if fmt == "json" and rc == 2 and "Expecting value" in stderr:
            return Verdict(False, defect="interp_json_path", why=why)
        return Verdict(False, why=why)
    got = _first_sample(stdout)["lhs_re"]
    want = a ** (-s)
    err = reference.rel_err(got, want)
    if err > INTERP_TOL:
        why = f"g(-{s}) = {got!r}, want {want!r} (a={a!r})"
        if certified and err <= CANCELLATION_MAX:
            return Verdict(False, defect="interp_head_cancellation", why=why)
        return Verdict(False, why=why)
    return Verdict(True, (reference.digits(err),))


_CHECKS = {
    "verify": _check_verify,
    "digamma": _check_digamma,
    "mellin": _check_mellin,
    "mellin_diag": _check_mellin_diag,
    "logconvexity": _check_logconvexity,
    "supermultiplicative": _check_supermultiplicative,
    "weight": _check_weight,
    "interp": _check_interp,
}
