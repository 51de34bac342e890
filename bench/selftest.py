"""Self-test of the per-layer tracing: python3 bench/selftest.py [--seed N]

For every workload, runs one pass of its op list under the tracer twice, from
two separate builds of the same seed, and checks that

* the counts a later change may cite (tracing.EXACT_COUNTS) repeat exactly;
* each layer metric is nonzero on the workload it should dominate;
* the layers predicted to be bypassed read exactly zero.

Exits 1 and lists the violations if any check fails.
"""

from __future__ import annotations

import argparse
import sys

from run import build, call, import_library, work_directory
from tracing import EXACT_COUNTS, METRICS, Tracer

SUP = [m for m, *_ in METRICS if m.startswith("expsum.sup_norm.")]
QUADRATURE = [m for m, *_ in METRICS
              if m.startswith("quadrature.") and m != "quadrature.failed"]
VANISHING = [m for m, *_ in METRICS if m.startswith("expsum.vanishing_order.")]

NONZERO = {
    "envelopes": ["cli.calls", "cli.self_ms", "sequences.calls", "sequences.ms", *SUP,
                  "bounds.check.calls", "bounds.check.self_ms", "bounds.scaling_fit.ms"],
    "identities": ["cli.calls", "cli.self_ms", "sequences.calls", "sequences.ms", *VANISHING,
                   "expsum.derivative_magnitudes.ms", "dephasing.uhrig_filter_magnitude.ms",
                   "dephasing.vanishing_order_filter.ms", "chebyshev.endpoint_identity.calls",
                   "chebyshev.endpoint_identity.ms"],
    "l1": ["cli.calls", "cli.self_ms", "sequences.calls", "sequences.ms",
           "expsum.l1_norm.calls", "expsum.l1_norm.self_ms", *QUADRATURE,
           "bounds.lower_bound_probe.self_ms"],
    "dephasing": ["cli.calls", "cli.self_ms", "sequences.calls", "sequences.ms", *QUADRATURE,
                  "dephasing.decay_factor.calls", "dephasing.decay_factor.self_ms",
                  "dephasing.filter_function.calls", "dephasing.filter_function.ms"],
}
ZERO = {
    "envelopes": QUADRATURE + ["quadrature.failed"],
    "identities": SUP + QUADRATURE + ["quadrature.failed"],
    "l1": SUP,
    "dephasing": [],
}


def traced_pass(es, workload: str, seed: int) -> dict:
    with work_directory() as workdir:
        ops = build(es, workload, seed, workdir).ops
        tracer = Tracer(es)
        tracer.install()
        try:
            for op in ops:
                call(op)
        finally:
            tracer.uninstall()
    return {name: m["value"] for name, m in tracer.metrics(1).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    es = import_library()
    problems = []
    for workload in NONZERO:
        first, second = (traced_pass(es, workload, args.seed) for _ in range(2))
        problems += [f"{workload}: {m} read {first[m]} then {second[m]}"
                     for m in EXACT_COUNTS if first[m] != second[m]]
        problems += [f"{workload}: {m} is zero" for m in NONZERO[workload] if first[m] == 0]
        problems += [f"{workload}: {m} is {first[m]}, predicted zero"
                     for m in ZERO[workload] if first[m] != 0]
        counts = ", ".join(f"{m}={first[m]:g}" for m in EXACT_COUNTS)
        print(f"{workload}: {counts}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
