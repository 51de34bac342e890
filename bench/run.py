"""expsums benchmark.

    python3 bench/run.py --workload envelopes --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout; the library is imported from ``src/``.  One
workload runs in this process as a closed loop with one client: whole passes
over the workload's op list until ``--seconds`` have passed and at least
MIN_SAMPLES ops have run.  Outputs of the first pass are checked against
references after the loop; later passes must reproduce them exactly.  Pinned
Baseline cases run once afterwards, untimed.  The report goes to stdout and
its last line is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics (per pass, from wrapped public functions) with ``--trace 1``.
``--workload all`` runs each workload in its own process and prints all of
their reports.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
# at least 10 samples beyond p99
MIN_SAMPLES = 1100
GRIND_CAP_S = 40.0
# one traced dephasing run takes about 85 s
RUN_TIMEOUT_S = 200.0


def import_library():
    """Import expsums from this checkout's src/, never from anywhere else."""
    package = SRC / "expsums"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import expsums
    import expsums.cli  # noqa: F401  (the CLI ops call expsums.cli.main)

    if Path(expsums.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported expsums from {expsums.__file__}, not {package}")
    return expsums


@contextmanager
def work_directory():
    """Scratch directory inside the checkout for the CLI's input files."""
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as path:
            yield Path(path)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def build(es, workload: str, seed: int, workdir: Path):
    import workloads

    refs = workloads.References()
    return workloads.WORKLOADS[workload](es, seed, refs, workdir)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: start to inputs built, ready for the first op."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), repr(start)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def call(op):
    from workloads import Raised

    try:
        return op.run()
    except Exception as exc:  # recorded as a failed op; the loop keeps going
        return Raised(type(exc).__name__, str(exc))


def timed_loop(ops, seconds: float):
    latencies, outputs, changed, pass_seconds = [], [None] * len(ops), set(), []
    clock = time.perf_counter
    start = clock()
    while True:
        pass_start = clock()
        for i, op in enumerate(ops):
            t = clock()
            out = call(op)
            latencies.append(clock() - t)
            if not pass_seconds:
                outputs[i] = out
            elif out != outputs[i]:
                changed.add(i)
        pass_seconds.append(clock() - pass_start)
        if clock() - start >= seconds and len(latencies) >= MIN_SAMPLES:
            break
    return latencies, outputs, changed, pass_seconds


def failure_reason(op, out):
    from workloads import Raised

    if isinstance(out, Raised):
        return f"raised {out.error}: {out.message}"
    try:
        return op.check(out)
    except Exception as exc:  # a malformed output is a wrong output
        return f"output could not be checked: {type(exc).__name__}: {exc}"


class WallClockCap(Exception):
    pass


def run_capped(op, cap_s: float):
    def expire(signum, frame):
        raise WallClockCap(f"still running after {cap_s:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return call(op)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def percentile_position(latencies, n_ops, q):
    """The op whose samples hold the q-th percentile, and where inside them."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    rank = q / 100.0 * (len(order) - 1)
    op_index = order[int(rank)] % n_ops
    ranks = [r for r, k in enumerate(order) if k % n_ops == op_index]
    return op_index, ranks[0], ranks[-1], rank


def run_workload(args) -> int:
    es = import_library()
    import numpy as np

    setup = setup_seconds(args.workload, args.seed)
    with work_directory() as workdir:
        workload = build(es, args.workload, args.seed, workdir)
        ops = workload.ops
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(es)
            tracer.install()
        try:
            latencies, outputs, changed, pass_seconds = timed_loop(ops, args.seconds)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        baseline = [(op, call(op)) for op in workload.baseline]
        if args.trace:
            baseline += [(op, run_capped(op, GRIND_CAP_S)) for op in workload.grind]

        t = time.perf_counter()
        reasons = [failure_reason(op, out) for op, out in zip(ops, outputs)]
        for i in changed:
            reasons[i] = reasons[i] or "output changed between passes"
        baseline_reasons = [failure_reason(op, out) for op, out in baseline]
        reference_s = time.perf_counter() - t

    passes, wall = len(pass_seconds), sum(pass_seconds)
    # throughput of the median pass: one slow pass does not move it
    ops_per_s = len(ops) / statistics.median(pass_seconds)
    attempted = len(latencies)
    failed = passes * sum(r is not None for r in reasons)
    ms = np.array(latencies) * 1e3
    p50, p99 = (float(np.percentile(ms, q)) for q in (50, 99))
    op99, lo99, hi99, rank99 = percentile_position(latencies, len(ops), 99)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{passes} passes x {len(ops)} ops  {wall:.2f} s")
    print(f"  setup_s         {statistics.median(setup):.4f} s  "
          f"(median of {len(setup)}: {', '.join(f'{s:.3f}' for s in setup)})")
    print(f"  ops_per_s       {ops_per_s:.2f} 1/s  (median pass; {attempted / wall:.2f} over all passes)")
    print(f"  latency_p50_ms  {p50:.4f} ms  ({attempted} samples)")
    print(f"  latency_p99_ms  {p99:.4f} ms  ({attempted} samples, "
          f"{int(np.sum(ms > p99))} beyond; rank {rank99:.1f} inside "
          f"'{ops[op99].name}', ranks {lo99}-{hi99})")
    print(f"  failed_frac     {failed / attempted:.4f}  ({failed} of {attempted})")
    print(f"  peak_rss_mb     {peak_rss_mb:.1f} MB")
    print(f"  references and checks took {reference_s:.2f} s (untimed)")
    for op, reason in zip(ops, reasons):
        if reason:
            print(f"  FAILED {op.name}: {reason}")
    if baseline:
        n_fail = sum(r is not None for r in baseline_reasons)
        print(f"baseline: {n_fail} of {len(baseline)} pinned cases fail (run once, untimed)")
        for (op, _), reason in zip(baseline, baseline_reasons):
            print(f"  {'fail' if reason else 'pass'}  {op.name}" + (f": {reason}" if reason else ""))

    if args.trace:
        measured = tracer.metrics(passes)
        print(f"per-layer metrics, per pass (traced ops_per_s {ops_per_s:.2f}; "
              f"the untraced run gives the tracing overhead)")
        for name, m in measured.items():
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    else:
        measured = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p99_ms": {"value": p99, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    # the JSON line carries the metrics BENCHMARK.json lists (per-layer times
    # read exactly zero on the workloads that bypass a layer, so only counts
    # and times nonzero everywhere are listed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: measured[m["name"]] for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; all reports, then one summary line."""
    import_library()
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("envelopes", "identities", "l1", "dephasing", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
