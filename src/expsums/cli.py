"""Command-line interface.

Subcommands::

    uhrig                emit a pulse sequence with sin^2 timings
    verify-multiplicity  check the order of the constructed zero at t = 0
    bounds-scan          measured maxima vs analytic envelopes over an a-grid
    chi                  dephasing decay integral for a sequence + density
    l1-scan              L1 masses and implied decay constants over a b-grid
    filter               |f(omega)| of a sequence over a frequency grid

Data goes to stdout (or ``--out``); diagnostics go to stderr.  ``--format``
applies to every subcommand: ``csv`` (default) writes the rows under a
header line, numbers to 17 significant digits; ``json`` writes one document,
by default the rows as objects keyed by the header.  ``uhrig --format json``
writes the pulse-sequence file format, and ``chi`` prints one number in
either format.  Exit codes:
0 success / all checks pass, 1 a claim check failed, 2 invalid usage or
input, 3 numeric failure (insufficient precision or quadrature breakdown).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bounds, dephasing, sequences
from .construction import _uhrig_moments
from .errors import InvalidInputError, PrecisionError, QuadratureError
from .expsum import Interval, _f17, vanishing_order
from .sequences import scaled_sum, uhrig_sum

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out}: {exc.strerror or exc}") from None


def _write(args, header: tuple[str, ...], rows: list, doc=None) -> None:
    """Write a subcommand's table in ``args.format`` to ``args.out``.

    CSV: the header line, then one line per row, numbers with 17 significant
    digits (the rule of ``_f17``) and bools as ``true``/``false``.  JSON:
    ``doc(records)``, or the records themselves, where the records are the
    rows as objects keyed by the header.
    """
    if args.format == "json":
        records = [dict(zip(header, row)) for row in rows]
        text = json.dumps(records if doc is None else doc(records), indent=2) + "\n"
    else:
        bools = [isinstance(v, bool) for v in rows[0]]
        if any(bools):
            rows = [[str(v).lower() if b else v for v, b in zip(row, bools)] for row in rows]
        # one format string per table: per-cell calls would dominate a large filter
        line = ",".join("{}" if b else "{:.17g}" for b in bools) + "\n"
        text = ",".join(header) + "\n" + "".join(itertools.starmap(line.format, rows))
    _emit(text, args.out)


def _parse_grid(text: str) -> list[float]:
    items = [s for chunk in text.split(",") for s in chunk.split()]
    try:
        values = [float(s) for s in items]
    except ValueError as exc:
        raise InvalidInputError(f"bad grid value: {exc}") from exc
    if not values:
        raise InvalidInputError("grid is empty")
    return values


# ---------------------------------------------------------------------------
# subcommands

def cmd_uhrig(args) -> int:
    seq = sequences.uhrig_pulse_times(args.n, args.T)
    if args.format == "json":
        _emit(dephasing.sequence_to_json(seq) + "\n", args.out)
    else:
        _write(args, ("j", "t"), list(enumerate(seq.times)))
    return EXIT_OK


def cmd_verify_multiplicity(args) -> int:
    order = vanishing_order(uhrig_sum(args.n))
    expected = args.n + 1
    rows = []
    for m in range(order + 1):  # |g^(m)(0)| = |mu_m| and its bound S_m, exact
        mu, s = _uhrig_moments(args.n, m)
        rows.append((m, abs(mu) / 4**m, s / 4**m, abs(mu) / s))
    _write(args, ("m", "value", "bound", "relative"), rows, lambda records: {
        "n": args.n, "order": order, "expected": expected,
        "residuals": records,
    })
    print(f"order={order} expected={expected}", file=sys.stderr)
    return EXIT_OK if order == expected else EXIT_CLAIM_FAILED


def cmd_bounds_scan(args) -> int:
    grid = _parse_grid(args.a_grid)
    check = (
        bounds.check_taylor_envelope if args.family == "taylor"
        else bounds.check_stirling_envelope
    )
    checks = [check(a) for a in grid]
    try:
        fit = bounds.scaling_fit([(r.a, r.achieved_max) for r in checks])
        fit_doc = {"c_est": fit.fit_slope, "intercept": fit.fit_intercept, "r2": fit.r_squared}
    except InvalidInputError:
        fit_doc = dict.fromkeys(("c_est", "intercept", "r2"))
    fit_doc["n_points"] = len(checks)
    rows = [(r.a, r.achieved_max, r.envelope, r.passes) for r in checks]
    _write(args, ("a", "value", "envelope", "passes"), rows,
           lambda records: {"family": args.family, "rows": records, "fit": fit_doc})
    if args.format == "csv":
        # the fit goes after the rows, or next to --out
        _emit(json.dumps(fit_doc) + "\n", args.out and args.out + ".fit.json")
    return EXIT_OK if all(r.passes for r in checks) else EXIT_CLAIM_FAILED


def cmd_chi(args) -> int:
    seq = dephasing.load_pulse_sequence(args.sequence)
    density = dephasing.load_spectral_density(args.density)
    value = dephasing.decay_factor(seq, density, abs_tol=args.tol)
    _emit(_f17(value) + "\n", args.out)
    print(f"abs_tol={args.tol:g}", file=sys.stderr)
    return EXIT_OK


def cmd_l1_scan(args) -> int:
    grid = _parse_grid(args.b_grid)
    rows = []
    for b in grid:
        g = scaled_sum(b)
        if args.interval_policy == "half":
            interval = Interval(y=-b / 18.0, a=b / 9.0)
        else:
            interval = Interval(y=-b / 9.0, a=2.0 * b / 9.0)
        probe = bounds.lower_bound_probe(g, interval, delta=1.0)
        rows.append((b, interval.length, probe.l1, probe.implied_c))
    _write(args, ("b", "a", "l1", "implied_c"), rows)
    return EXIT_OK


def cmd_filter(args) -> int:
    if args.sequence is not None:
        seq = dephasing.load_pulse_sequence(args.sequence)
    else:
        if args.n is None or args.T is None:
            raise InvalidInputError("provide either --sequence or both --n and --T")
        seq = sequences.uhrig_pulse_times(args.n, args.T)
    if args.points < 2:
        raise InvalidInputError(f"need at least 2 points, got {args.points}")
    if not args.omega_max > args.omega_min:
        raise InvalidInputError("omega-max must exceed omega-min")
    if args.spacing == "log":
        if args.omega_min <= 0:
            raise InvalidInputError("log spacing requires omega-min > 0")
        omegas = np.geomspace(args.omega_min, args.omega_max, args.points)
    else:
        omegas = np.linspace(args.omega_min, args.omega_max, args.points)
    f = dephasing.filter_function(seq, omegas)
    # np.hypot rounds like abs() of a complex; np.abs can differ in the last bit
    values = np.hypot(f.real, f.imag)
    _write(args, ("omega", "abs"), list(zip(omegas.tolist(), values.tolist())))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsums",
        description="Exponential-sum constructions, verifications, and scans.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write data to this path instead of stdout")
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("uhrig", parents=[common], help="emit sin^2 pulse timings")
    p.add_argument("--n", type=int, required=True, help="number of pulses (>= 1)")
    p.add_argument("--T", type=float, required=True, help="total duration")
    p.set_defaults(func=cmd_uhrig)

    p = sub.add_parser(
        "verify-multiplicity",
        parents=[common],
        help="order of the constructed zero at t = 0",
    )
    p.add_argument("--n", type=int, required=True, help="even construction order")
    p.set_defaults(func=cmd_verify_multiplicity)

    p = sub.add_parser(
        "bounds-scan", parents=[common], help="maxima vs envelopes over an a-grid"
    )
    p.add_argument(
        "--family",
        choices=("taylor", "stirling"),
        required=True,
        help="which envelope/construction family to scan",
    )
    p.add_argument("--a-grid", required=True, help="comma-separated interval radii")
    p.set_defaults(func=cmd_bounds_scan)

    p = sub.add_parser("chi", parents=[common], help="dephasing decay integral")
    p.add_argument("--sequence", required=True, help="pulse-sequence JSON file")
    p.add_argument("--density", required=True, help="spectral-density JSON file")
    p.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser(
        "l1-scan", parents=[common], help="L1 masses over a b-grid"
    )
    p.add_argument("--b-grid", required=True, help="comma-separated b values in (0, 3]")
    p.add_argument(
        "--interval-policy",
        choices=("half", "full"),
        default="half",
        help="half: [-b/18, b/18]; full: [-b/9, b/9]",
    )
    p.set_defaults(func=cmd_l1_scan)

    p = sub.add_parser("filter", parents=[common], help="|f(omega)| over a grid")
    p.add_argument("--sequence", help="pulse-sequence JSON file")
    p.add_argument("--n", type=int, help="pulses for a generated sin^2 sequence")
    p.add_argument("--T", type=float, help="duration for a generated sequence")
    p.add_argument("--omega-min", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p.set_defaults(func=cmd_filter)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the first ``main`` call, reused: building it costs far
    more than parsing, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # an order below the caps whose lists still do not fit
        print("error: out of memory; try a smaller order or radius", file=sys.stderr)
        return EXIT_USAGE
    except (PrecisionError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
