"""The four benchmark workloads.

Each workload is a fixed list of ops built from ``--seed``.  The seed jitters
radii, interval lengths, cutoffs, total times and random polynomials inside
narrow ranges, so every seed has the same structure and nearly the same cost.
An op is one public call (or one ``cli.main`` call with output captured in
memory) and carries a check against a reference from ``reference.py``.

Every workload also has pinned Baseline cases: the inputs on which the
library is known to fail.  They are the same for every seed, run once per
run outside the timed loop, and are reported with their status and reason;
the timed loops hold only ops that pass, so that a new failure shows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

SUP_RTOL = 1e-3
L1_ATOL = 1e-8
CHI_ABS_TOL = 1e-10
FILTER_ATOL = 1e-12
MAGNITUDE_RTOL = 1e-10
FIT_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    # None when the output is right, else the reason it is wrong
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Raised:
    error: str
    message: str


@dataclass(frozen=True)
class Workload:
    ops: list
    baseline: list
    # slow Baseline cases, run only in the traced run under a wall-clock cap
    grind: list


class References:
    """Memo of reference values shared between ops of one run."""

    def __init__(self):
        self._values = {}

    def get(self, key, compute):
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]


def run_cli(es, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = es.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def f17(x: float) -> str:
    return format(float(x), ".17g")


def relative_error(got: float, want: float, rtol: float) -> Optional[str]:
    err = abs(got - want)
    if err <= rtol * abs(want):
        return None
    return f"{got!r} against reference {want!r} (relative {err / abs(want):.2e} > {rtol:g})"


def absolute_error(got: float, want: float, atol: float) -> Optional[str]:
    err = abs(got - want)
    if err <= atol:
        return None
    return f"{got!r} against reference {want!r} (error {err:.2e} > {atol:g})"


def first(*reasons) -> Optional[str]:
    return next((r for r in reasons if r is not None), None)


def expect(condition: bool, reason: str) -> Optional[str]:
    return None if condition else reason


def cli_failure(result: CliResult, code: int = 0) -> Optional[str]:
    if result.code != code:
        return f"exit code {result.code}, expected {code}: {result.err.strip()[-200:]}"
    return None


def least_squares_fit(points) -> tuple[float, float, float]:
    x = np.array([1.0 / a for a, _ in points])
    y = np.array([-math.log(v) for _, v in points])
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ np.array([slope, intercept])
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 - float(np.dot(residuals, residuals)) / ss_tot
    return float(slope), float(intercept), r2


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1.0)


# ---------------------------------------------------------------------------
# envelopes: sup-norm grid scan + golden-section refinement, no quadrature

TAYLOR_ORDERS = tuple(range(2, 18, 2))
STIRLING_ORDERS = (4, 6, 8)
SUP_ORDERS = tuple(range(2, 42, 2))
BASELINE_TAYLOR = tuple(range(18, 42, 2))
BASELINE_STIRLING = tuple(range(10, 42, 2))


def taylor_radius(n: int, jitter: float) -> float:
    """Radius a = b/9 with b a little below 3/(n+1), so the order stays n."""
    return 3.0 / (n + 1) * (1.0 - 0.03 * jitter) / 9.0


def stirling_radius(n: int, jitter: float) -> float:
    """Radius a little above e^-2/n, so the unit-gap order stays n."""
    return math.exp(-2.0) / n * (1.0 + 0.03 * jitter)


def envelopes(es, seed: int, refs: References, workdir: Path) -> Workload:
    rng = random.Random(f"envelopes-{seed}")
    taylor = {n: taylor_radius(n, rng.random()) for n in TAYLOR_ORDERS}
    stirling = {n: stirling_radius(n, rng.random()) for n in STIRLING_ORDERS}

    def taylor_ref(n, a):
        return refs.get(("taylor", n, a), lambda: ref.sup_taylor(n, a))

    def stirling_ref(n, a):
        return refs.get(("stirling", n, a), lambda: ref.sup_stirling(n, a))

    def envelope_op(family, n, a):
        if family == "taylor":
            run = lambda: es.check_taylor_envelope(a)
            sup, envelope = (lambda: taylor_ref(n, a)), ref.taylor_envelope_b(9.0 * a)
        else:
            run = lambda: es.check_stirling_envelope(a)
            sup, envelope = (lambda: stirling_ref(n, a)), ref.stirling_envelope(a)

        def check(r):
            return first(
                expect(r.order == n, f"order {r.order}, expected {n}"),
                relative_error(r.achieved_max, sup(), SUP_RTOL),
                relative_error(r.envelope, envelope, 1e-12),
                expect(r.passes == (r.achieved_max <= r.envelope), "passes flag inconsistent"),
            )
        return Op(f"check_{family}_envelope n={n} a={a:.6g}", run, check)

    def scan_op(family, radii, fmt):
        grid = ",".join(repr(a) for a in radii.values())
        argv = ["bounds-scan", "--family", family, "--a-grid", grid, "--format", fmt]
        refs_for = taylor_ref if family == "taylor" else stirling_ref

        def check(result):
            bad = cli_failure(result)
            if bad:
                return bad
            if fmt == "json":
                doc = json.loads(result.out)
                rows = [(r["a"], r["value"], r["envelope"], r["passes"]) for r in doc["rows"]]
                fit = doc["fit"]
            else:
                lines = result.out.splitlines()
                if lines[0] != "a,value,envelope,passes":
                    return f"unexpected header {lines[0]!r}"
                rows = []
                for line in lines[1:-1]:
                    a, value, envelope, passes = line.split(",")
                    rows.append((float(a), float(value), float(envelope), passes == "true"))
                fit = json.loads(lines[-1])
            if [r[0] for r in rows] != list(radii.values()):
                return "rows do not match the requested a-grid"
            for (n, a), (_, value, envelope, passes) in zip(radii.items(), rows):
                reason = first(
                    relative_error(value, refs_for(n, a), SUP_RTOL),
                    expect(passes, f"envelope check failed at a={a!r}"),
                )
                if reason:
                    return f"a={a!r}: {reason}"
            slope, intercept, r2 = least_squares_fit([(r[0], r[1]) for r in rows])
            return expect(
                close(fit["c_est"], slope, FIT_RTOL)
                and close(fit["intercept"], intercept, FIT_RTOL)
                and close(fit["r2"], r2, FIT_RTOL),
                f"fit {fit} disagrees with least squares {(slope, intercept, r2)}",
            )
        return Op(f"cli bounds-scan {family} {fmt}", lambda: run_cli(es, argv), check)

    def sup_op(n):
        # far from the zero at t = 0, where |g| is of order 1 for every n <= 40
        y = 30.0 + 10.0 * rng.random()
        length = 5.0 + 5.0 * rng.random()

        def check(r):
            want = refs.get(("uhrig", n, y, length), lambda: ref.sup_uhrig(n, y, y + length))
            return first(
                relative_error(r.value, want, SUP_RTOL),
                expect(y <= r.argmax <= y + length, f"argmax {r.argmax} outside the interval"),
            )
        return Op(f"sup_norm uhrig_sum({n}) on [{y:.4g}, {y + length:.4g}]",
                  lambda: es.sup_norm(es.uhrig_sum(n), es.Interval(y=y, a=length)), check)

    ops = [envelope_op("taylor", n, a) for n, a in taylor.items()]
    ops += [envelope_op("stirling", n, a) for n, a in stirling.items()]
    ops += [scan_op("taylor", taylor, "csv"), scan_op("taylor", taylor, "json"),
            scan_op("stirling", stirling, "csv")]
    ops += [sup_op(n) for n in SUP_ORDERS]
    baseline = [envelope_op("taylor", n, 1.0 / (3.0 * (n + 1))) for n in BASELINE_TAYLOR]
    baseline += [envelope_op("stirling", n, math.exp(-2.0) / n) for n in BASELINE_STIRLING]
    return Workload(ops, baseline, [])


# ---------------------------------------------------------------------------
# identities: the mpmath derivative ladder, no grid scan, no quadrature

VANISHING_ORDERS = tuple(range(2, 22, 2))
VERIFY_ORDERS = (4, 8, 12, 16, 20)
FILTER_PULSES = tuple(range(1, 21))
POWER_SUM_ORDERS = (4, 8, 12, 16, 20)
MAGNITUDE_PULSES = tuple(range(1, 9))
ENDPOINT_ORDERS = tuple(range(2, 22, 2))
BASELINE_VANISHING = tuple(range(22, 42, 2)) + (100,)


def identities(es, seed: int, refs: References, workdir: Path) -> Workload:
    rng = random.Random(f"identities-{seed}")

    def order_op(n):
        return Op(f"vanishing_order(uhrig_sum({n}))",
                  lambda: es.vanishing_order(es.uhrig_sum(n)),
                  lambda got: expect(got == n + 1, f"order {got}, expected {n + 1}"))

    def verify_op(n, fmt):
        argv = ["verify-multiplicity", "--n", str(n), "--format", fmt]

        def check(result):
            bad = cli_failure(result)
            if bad:
                return bad
            if fmt == "json":
                rows = [(r["m"], r["value"], r["relative"]) for r in json.loads(result.out)["residuals"]]
            else:
                rows = [(int(m), float(v), float(rel)) for m, v, _, rel
                        in (line.split(",") for line in result.out.splitlines()[1:])]
            want = refs.get(("derivative", n), lambda: ref.uhrig_derivative(n, n + 1))
            return first(
                expect(f"order={n + 1} expected={n + 1}" in result.err, result.err.strip()),
                expect([r[0] for r in rows] == list(range(n + 2)), "residual rows are not m = 0..n+1"),
                expect(all(rel <= 1e-12 for _, _, rel in rows[:-1]), "an order below n+1 exceeds the tolerance"),
                relative_error(rows[-1][1], want, SUP_RTOL),
            )
        return Op(f"cli verify-multiplicity n={n} {fmt}", lambda: run_cli(es, argv), check)

    def filter_order_op(n):
        total_time = 0.5 + 1.5 * rng.random()
        return Op(f"vanishing_order_filter n={n} T={total_time:.4g}",
                  lambda: es.vanishing_order_filter(es.uhrig_pulse_times(n, total_time)),
                  lambda got: expect(got == n + 1, f"order {got}, expected {n + 1}"))

    def power_sum_op(n):
        m = rng.randint(1, n)

        def check(got):
            return expect(abs(got - ref.mpmath.mpf(1) / 2) <= 1e-40, f"sum {got}, expected 1/2")
        return Op(f"alternating_power_sum n={n} m={m}",
                  lambda: es.alternating_power_sum(n, m), check)

    def magnitude_op(n):
        total_time = 0.5 + 1.5 * rng.random()
        omega = 10.0 ** (-3.0 + 2.0 * rng.random()) / total_time

        def check(got):
            want = ref.filter_magnitudes(n, total_time, [omega], dps=80)[0]
            return relative_error(got, want, MAGNITUDE_RTOL)
        return Op(f"uhrig_filter_magnitude n={n} omega={omega:.4g}",
                  lambda: es.uhrig_filter_magnitude(n, total_time, omega), check)

    def endpoint_op(n):
        degree = rng.randint(0, n)
        coeffs = [0.0] * (2 * degree + 1)
        for i in range(degree + 1):
            coeffs[2 * i] = rng.uniform(-1.0, 1.0)
        scale = 1.0 + sum(abs(c) for c in coeffs)

        def check(got):
            return expect(got <= 1e-10 * scale, f"residual {got!r} > {1e-10 * scale:.3g}")
        return Op(f"endpoint_identity_residual n={n} degree={2 * degree}",
                  lambda: es.endpoint_identity_residual(coeffs, n), check)

    ops = [order_op(n) for n in VANISHING_ORDERS]
    ops += [verify_op(n, "csv") for n in VERIFY_ORDERS]
    ops.append(verify_op(10, "json"))
    ops += [filter_order_op(n) for n in FILTER_PULSES]
    ops += [power_sum_op(n) for n in POWER_SUM_ORDERS]
    ops += [magnitude_op(n) for n in MAGNITUDE_PULSES]
    ops += [endpoint_op(n) for n in ENDPOINT_ORDERS for _ in range(2)]
    baseline = [order_op(n) for n in BASELINE_VANISHING]
    return Workload(ops, baseline, [])


# ---------------------------------------------------------------------------
# l1: adaptive quadrature driving the grid evaluator in 15/31-point calls

def exact_sum(kind: str, param):
    """(coefficients, exponents) of a constructed sum, exponents rounded to
    double from their 60-digit values."""
    if kind == "explicit":
        return param
    with ref.mp.workdps(60):
        if kind == "uhrig":
            n, lam = param, ref.uhrig_exponents(param)
        elif kind == "scaled":
            n, b = param
            lam = ref.scaled_exponents(n, b)
        else:
            n, lam = param, ref.unit_gap_exponents(param)
        return ref.filter_coefficients(n), [float(x) for x in lam]


def build_sum(es, kind: str, param):
    if kind == "uhrig":
        return es.uhrig_sum(param)
    if kind == "scaled":
        return es.scaled_sum(param[1])
    if kind == "unit_gap":
        return es.unit_gap_sum(param)
    coeffs, exps = param
    return es.ExpSum(coefficients=coeffs, exponents=exps)


# Acceptance criterion 7: its sums and intervals.  Scaled sums carry their order.
CRITERION7_SUMS = (
    ("uhrig", 2), ("uhrig", 4), ("uhrig", 6),
    ("scaled", (2, 1.0)), ("scaled", (0, 2.0)), ("scaled", (0, 3.0)),
    ("unit_gap", 2), ("unit_gap", 4),
    ("explicit", ((1.0, -1.0), (0.0, 1.0))),
    ("explicit", ((1.0, -2.0, 1.0), (0.0, 1.0, 2.0))),
)
CRITERION7_INTERVALS = ((-0.5, 1.0), (0.25, 0.75), (-2.0, 1.5))
# Longer intervals, pinned: l1_norm misses 1e-8 on a few percent of long
# intervals (see the Baseline cases), so these are not jittered.
# (kind, order or (order, b), left end, length)
LONG_INTERVALS = (
    ("uhrig", 10, 0.0, 60.0),
    ("uhrig", 16, 0.0, 80.0),
    ("uhrig", 20, 0.0, 80.0),
    ("scaled", (4, 0.6), -3.0, 6.0),
    ("scaled", (8, 1.0 / 3.0), -1.25, 2.5),
    ("unit_gap", 8, -2.5, 5.0),
    ("unit_gap", 12, -1.5, 3.0),
)
SCAN_ORDERS = {"half": (2, 4, 8, 16), "full": (2, 6, 10)}


def scaled_b(n: int, jitter: float) -> float:
    """b a little below 3/(n+1), so scaled_sum(b) has order n."""
    return 3.0 / (n + 1) * (1.0 - 0.03 * jitter)


def l1(es, seed: int, refs: References, workdir: Path) -> Workload:
    rng = random.Random(f"l1-{seed}")

    def oracle(kind, param, lo, hi):
        def compute():
            coeffs, exps = exact_sum(kind, param)
            return ref.l1_oracle(coeffs, exps, lo, hi)
        return refs.get((kind, param, lo, hi), compute)

    def l1_op(kind, param, lo, length):
        def check(got):
            return absolute_error(got, oracle(kind, param, lo, lo + length), L1_ATOL)
        return Op(f"l1_norm {kind}{param} on [{lo:.4g}, {lo + length:.4g}]",
                  lambda: es.l1_norm(build_sum(es, kind, param), es.Interval(y=lo, a=length)),
                  check)

    def scan_op(policy):
        bs = [scaled_b(n, rng.random()) for n in SCAN_ORDERS[policy]]
        argv = ["l1-scan", "--b-grid", ",".join(repr(b) for b in bs), "--interval-policy", policy]

        def check(result):
            bad = cli_failure(result)
            if bad:
                return bad
            lines = result.out.splitlines()
            if lines[0] != "b,a,l1,implied_c":
                return f"unexpected header {lines[0]!r}"
            rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
            if [r[0] for r in rows] != bs:
                return "rows do not match the requested b-grid"
            for n, (b, a, value, implied) in zip(SCAN_ORDERS[policy], rows):
                half = b / 18.0 if policy == "half" else b / 9.0
                reason = first(
                    expect(a == 2.0 * half, f"b={b!r}: interval length {a!r}, expected {2.0 * half!r}"),
                    absolute_error(value, oracle("scaled", (n, b), -half, half), L1_ATOL),
                    relative_error(implied, -a * math.log(value), 1e-12),
                )
                if reason:
                    return f"b={b!r}: {reason}"
            return None
        return Op(f"cli l1-scan {policy}", lambda: run_cli(es, argv), check)

    ops = [l1_op(kind, param, lo, length)
           for kind, param in CRITERION7_SUMS for lo, length in CRITERION7_INTERVALS]
    ops += [l1_op(*spec) for spec in LONG_INTERVALS]
    ops += [scan_op("half"), scan_op("full")]
    baseline = [l1_op("uhrig", 20, 0.0, 100.0), l1_op("scaled", (28, 0.1), -1.0, 2.0),
                l1_op("uhrig", 20, 0.0, 53.0), l1_op("uhrig", 10, 0.0, 66.0)]
    return Workload(ops, baseline, [])


# ---------------------------------------------------------------------------
# dephasing: quadrature of a smooth, large-magnitude chi integrand

FLAT, OHMIC, TABULATED = "hard-cutoff-flat", "ohmic-exponential", "tabulated"
PULSES = (1, 2, 4, 8, 16, 32)
FLAT_CUTOFFS = (1.0, 3.0, 10.0, 30.0, 100.0)
OHMIC_CUTOFFS = (0.1, 0.3, 1.0, 3.0, 10.0)
TABLES = (
    ((0.0, 0.5, 1.0, 2.0, 4.0, 8.0), lambda w: 1.0 / (1.0 + w)),
    ((0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0), lambda w: w * math.exp(-w / 10.0)),
)
# The most expensive cells of the flat and ohmic ranges, pinned: the flat
# cell's cost jumps from 50 to 320 ms within 2% of its cutoff.  Three copies
# of the ohmic one put p99 in the middle of its samples.
HEAVY = ((FLAT, 32, 300.0),) + ((OHMIC, 16, 20.0),) * 3
CLI_CHI = ((FLAT, 4, 10.0), (FLAT, 16, 30.0), (OHMIC, 8, 3.0), (OHMIC, 32, 1.0),
           (TABULATED, 8, 0), (TABULATED, 32, 1))
FILTER_POINTS = (512, 4096)
# Baseline: succeeds, but only after 28,787 panels
SLOW = (OHMIC, 4, 50.0)
# Baseline: misses abs_tol 1e-10 by 4e-10
MISSED = (OHMIC, 8, 10.0879)
# Baseline: grind to the 2^20-panel cap; traced run only
GRIND = ((OHMIC, 32, 50.0), (FLAT, 32, 1000.0))


def pulse_times(n: int, total_time: float) -> tuple:
    return (0.0, *(total_time * math.sin(j * math.pi / (2 * n + 2)) ** 2
                   for j in range(1, n + 1)), float(total_time))


def dephasing(es, seed: int, refs: References, workdir: Path) -> Workload:
    rng = random.Random(f"dephasing-{seed}")

    def jitter(x, share):
        return x * (1.0 + share * (2.0 * rng.random() - 1.0))

    def density(kind, cutoff_or_table, pinned=False):
        """Density as its JSON document.  Ohmic cutoffs are never jittered:
        chi misses 1e-10 at some of them (see MISSED)."""
        if kind == TABULATED:
            grid, shape = TABLES[cutoff_or_table]
            return {"kind": kind, "amplitude": 1.0,
                    "table": [[w, jitter(shape(w), 0.02)] for w in grid]}
        cutoff = cutoff_or_table if pinned or kind == OHMIC else jitter(cutoff_or_table, 0.02)
        return {"kind": kind, "amplitude": 1.0, "cutoff": cutoff}

    def check_chi(n, total_time, spec):
        def check(got):
            table = spec.get("table")
            want = ref.chi_closed_form(ref.sin2_times(n, total_time), spec["kind"], spec["amplitude"],
                                       spec.get("cutoff"), table and [tuple(p) for p in table])
            return absolute_error(got, want, CHI_ABS_TOL)
        return check

    def decay_op(kind, n, cutoff_or_table, pinned=False):
        spec = density(kind, cutoff_or_table, pinned)
        dens = es.load_spectral_density(spec)
        label = f"wc={spec['cutoff']:.6g}" if "cutoff" in spec else f"table {cutoff_or_table}"
        return Op(f"decay_factor {kind} n={n} {label}",
                  lambda: es.decay_factor(es.uhrig_pulse_times(n, 1.0), dens),
                  check_chi(n, 1.0, spec))

    def cli_chi_op(index, kind, n, cutoff_or_table):
        total_time = jitter(1.0, 0.2)
        spec = density(kind, cutoff_or_table)
        seq_path = workdir / f"sequence{index}.json"
        dens_path = workdir / f"density{index}.json"
        seq_path.write_text(json.dumps({"times": list(pulse_times(n, total_time)), "T": total_time}))
        dens_path.write_text(json.dumps(spec))
        argv = ["chi", "--sequence", str(seq_path), "--density", str(dens_path)]
        check = check_chi(n, total_time, spec)
        return Op(f"cli chi {kind} n={n}", lambda: run_cli(es, argv),
                  lambda result: cli_failure(result) or check(float(result.out)))

    def filter_op(points):
        n = rng.randint(2, 8)
        total_time = jitter(1.0, 0.2)
        omega_max = jitter(20.0, 0.2)
        argv = ["filter", "--n", str(n), "--T", repr(total_time),
                "--omega-max", repr(omega_max), "--points", str(points)]

        def check(result):
            bad = cli_failure(result)
            if bad:
                return bad
            lines = result.out.splitlines()
            omegas = np.linspace(0.0, omega_max, points)
            rows = [line.split(",") for line in lines[1:]]
            if lines[0] != "omega,abs" or [w for w, _ in rows] != [f17(w) for w in omegas]:
                return "frequency grid differs from linspace(0, omega_max, points)"
            want = ref.filter_magnitudes(n, total_time, omegas)
            for (w, got), value in zip(rows, want):
                reason = absolute_error(float(got), value, FILTER_ATOL)
                if reason:
                    return f"omega={w}: {reason}"
            return None
        return Op(f"cli filter n={n} points={points}", lambda: run_cli(es, argv), check)

    ops = []
    for _ in range(3):
        ops += [decay_op(FLAT, n, wc) for n in PULSES for wc in FLAT_CUTOFFS]
        ops += [decay_op(OHMIC, n, wc) for n in PULSES for wc in OHMIC_CUTOFFS]
        ops += [decay_op(TABULATED, n, t) for n in PULSES for t in range(len(TABLES))]
    ops += [decay_op(*cell, pinned=True) for cell in HEAVY]
    ops += [cli_chi_op(i, *spec) for i, spec in enumerate(CLI_CHI)]
    ops += [filter_op(points) for points in FILTER_POINTS]
    ops.append(decay_op(*SLOW))
    baseline = [decay_op(*MISSED)]
    grind = [decay_op(*cell, pinned=True) for cell in GRIND]
    return Workload(ops, baseline, grind)


WORKLOADS = {
    "envelopes": envelopes,
    "identities": identities,
    "l1": l1,
    "dephasing": dephasing,
}
