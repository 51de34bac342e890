"""Command-line interface.

Subcommands::

    uhrig                emit a pulse sequence with sin^2 timings
    verify-multiplicity  check the order of the constructed zero at t = 0
    bounds-scan          measured maxima vs analytic envelopes over an a-grid
    chi                  dephasing decay integral for a sequence + density
    l1-scan              L1 masses and implied decay constants over a b-grid
    filter               |f(omega)| of a sequence over a frequency grid

Data goes to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 success / all checks pass, 1 a claim check failed, 2 invalid usage or
input, 3 numeric failure (insufficient precision or quadrature breakdown).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bounds, dephasing, sequences
from .errors import InvalidInputError, PrecisionError, QuadratureError
from .expsum import Interval, _f17, _first_order, derivative_magnitudes
from .sequences import scaled_sum, uhrig_sum

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


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
        rows = "".join(f"{j},{_f17(t)}\n" for j, t in enumerate(seq.times))
        _emit("j,t\n" + rows, args.out)
    return EXIT_OK


def cmd_verify_multiplicity(args) -> int:
    g = uhrig_sum(args.n)
    expected = args.n + 1
    cap = 2 * len(g) + 8
    pairs = derivative_magnitudes(g, 0.0, cap, dps=args.digits)
    order = _first_order(pairs, args.tol)
    shown = pairs[: (order if order is not None else cap) + 1]
    if args.format == "json":
        doc = {
            "n": args.n,
            "rel_tol": args.tol,
            "order": order,
            "expected": expected,
            "residuals": [
                {"m": m, "value": v, "bound": b, "relative": (v / b if b else 0.0)}
                for m, (v, b) in enumerate(shown)
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        rows = "".join(
            f"{m},{_f17(v)},{_f17(b)},{_f17(v / b if b else 0.0)}\n"
            for m, (v, b) in enumerate(shown)
        )
        _emit("m,value,bound,relative\n" + rows, args.out)
    print(f"order={order} expected={expected}", file=sys.stderr)
    return EXIT_OK if order == expected else EXIT_CLAIM_FAILED


def cmd_bounds_scan(args) -> int:
    grid = _parse_grid(args.a_grid)
    check = (
        bounds.check_taylor_envelope if args.family == "taylor"
        else bounds.check_stirling_envelope
    )
    rows = [check(a, grid_points=args.grid_points) for a in grid]
    try:
        fit = bounds.scaling_fit([(r.a, r.achieved_max) for r in rows])
        fit_doc = {
            "c_est": fit.fit_slope,
            "intercept": fit.fit_intercept,
            "r2": fit.r_squared,
            "n_points": len(rows),
        }
    except InvalidInputError:
        fit_doc = {"c_est": None, "intercept": None, "r2": None, "n_points": len(rows)}
    fit_json = json.dumps(fit_doc)

    if args.format == "json":
        doc = {
            "family": args.family,
            "rows": [
                {
                    "a": r.a,
                    "value": r.achieved_max,
                    "envelope": r.envelope,
                    "passes": r.passes,
                }
                for r in rows
            ],
            "fit": fit_doc,
        }
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        csv_text = "a,value,envelope,passes\n" + "".join(
            f"{_f17(r.a)},{_f17(r.achieved_max)},{_f17(r.envelope)},"
            f"{'true' if r.passes else 'false'}\n"
            for r in rows
        )
        _emit(csv_text, args.out)
        if args.out is not None:
            Path(args.out + ".fit.json").write_text(fit_json + "\n")
        else:
            sys.stdout.write(fit_json + "\n")
    return EXIT_OK if all(r.passes for r in rows) else EXIT_CLAIM_FAILED


def cmd_chi(args) -> int:
    seq = dephasing.load_pulse_sequence(args.sequence)
    density = dephasing.load_spectral_density(args.density)
    value = dephasing.decay_factor(seq, density, abs_tol=args.tol)
    _emit(_f17(value) + "\n", args.out)
    print(f"abs_tol={args.tol:g}", file=sys.stderr)
    return EXIT_OK


def cmd_l1_scan(args) -> int:
    grid = _parse_grid(args.b_grid)
    records = []
    for b in grid:
        g = scaled_sum(b)
        if args.interval_policy == "half":
            interval = Interval(y=-b / 18.0, a=b / 9.0)
        else:
            interval = Interval(y=-b / 9.0, a=2.0 * b / 9.0)
        probe = bounds.lower_bound_probe(g, interval, delta=1.0)
        records.append((b, interval.length, probe.l1, probe.implied_c))
    if args.format == "json":
        doc = [
            {"b": b, "a": a, "l1": l1, "implied_c": c} for b, a, l1, c in records
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        rows = "".join(
            f"{_f17(b)},{_f17(a)},{_f17(l1)},{_f17(c)}\n" for b, a, l1, c in records
        )
        _emit("b,a,l1,implied_c\n" + rows, args.out)
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
    rows = "".join(f"{_f17(w)},{_f17(v)}\n" for w, v in zip(omegas, values))
    _emit("omega,abs\n" + rows, args.out)
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
    p.add_argument("--tol", type=float, default=1e-12, help="relative tolerance")
    p.add_argument("--digits", type=int, default=None,
                   help="precision digits away from t = 0; results at t = 0 are exact")
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
    p.add_argument("--grid-points", type=int, default=None, help="scan grid override")
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
    except (PrecisionError, QuadratureError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
