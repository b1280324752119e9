"""One workload's measurement, run in a fresh interpreter by ``run.py``.

Calls ``specmul.cli.main`` in-process as a closed loop: one client, the next
call starts when the previous one returns.  Every call is checked; the
result is one JSON line on stdout.

    python3 benchmarks/measure.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--smoke]

With ``--trace 0`` it times ``--workers 2`` calls after one untimed warm-up
and one untimed ``--workers 1`` reference call, and times a fixed calibration
task before each call; the ``*_norm*`` metrics divide each call by how much
slower than the reference that task ran just before it, and take the median.
With ``--trace 1`` it runs
rounds of an untraced ``--workers 2`` call, an untraced ``--workers 1`` call
and a traced ``--workers 1`` call, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import specmul  # noqa: E402
import specmul.cli  # noqa: E402

from calibrate import slowdown  # noqa: E402
from layers import Tracer, median_metrics  # noqa: E402
from workloads import WORKERS, WORKLOADS  # noqa: E402

# Share of a traced call's wall time by which the span self times may miss it.
# The self times of a tree of spans sum to the inclusive time of its root
# (``cli.main``), so this catches spans recorded outside the call and wrapper
# cost outside the root span; it says nothing about how much of the call the
# lower layers cover (``cli.self_s`` shows that).
SELF_SUM_TOL = 0.01

# Fewest timed calls (or trace rounds) a run makes, however short --seconds is.
MIN_CALLS = 3


@dataclass
class Call:
    wall: float
    cpu: float
    text: str
    problems: list
    report_key: str = ""


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _run_cli(argv: list) -> Call:
    """One ``specmul measure`` call: wall time from argv to the report text,
    and CPU of this process plus its (reaped) pool children."""
    buf = io.StringIO()
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = specmul.cli.main(argv)
        except Exception:  # a traceback is a failed call, not a dead run
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = _cpu(own1) - _cpu(own0) + _cpu(kids1) - _cpu(kids0)
    problems = [] if code == 0 else [f"exit code {code}"]
    return Call(wall, cpu, buf.getvalue(), problems)


class Checker:
    """Gates every call: exit code, the workload's checks, and equality of
    the ``report`` object with the ``--workers 1`` reference."""

    def __init__(self, workload, size) -> None:
        self.workload = workload
        self.size = size
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, call: Call) -> Call:
        self.attempted += 1
        if not call.problems:
            report = json.loads(call.text)["report"]
            call.report_key = json.dumps(report, sort_keys=True, indent=2)
            call.problems += self.workload.check(self.size, report)
            if self.reference is not None and call.report_key != self.reference:
                call.problems.append("report differs from the --workers 1 report")
        if call.problems:
            self.failed += 1
            print(f"{self.workload.name}: call {self.attempted} failed: "
                  + "; ".join(call.problems), file=sys.stderr)
        return call

    def set_reference(self, call: Call) -> None:
        self.reference = call.report_key or None


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of the largest pool child (KiB).

    A forked child's RSS includes the pages it shares copy-on-write with this
    process, so those are counted twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(argv: list, check: Checker, seconds: float,
               pair_total: int) -> tuple:
    w2 = argv + ["--workers", str(WORKERS)]
    check(_run_cli(w2))  # warm-up
    check.set_reference(check(_run_cli(argv + ["--workers", "1"])))
    walls, cpus, slows = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_CALLS or time.perf_counter() - start < seconds:
        slows.append(slowdown())
        call = check(_run_cli(w2))
        walls.append(call.wall)
        cpus.append(call.cpu)
    solve = statistics.median(walls)
    solve_norm = statistics.median(w / k for w, k in zip(walls, slows))
    return {
        "solve_s": solve,
        "pairs_per_s": pair_total / solve,
        "cpu_s": statistics.median(cpus),
        "solve_norm_s": solve_norm,
        "pairs_per_norm_s": pair_total / solve_norm,
        "cpu_norm_s": statistics.median(c / k for c, k in zip(cpus, slows)),
        "peak_rss_mb": _peak_rss_mb(),
    }, {"workers": WORKERS, "timed_calls": len(walls),
        "slowdown": statistics.median(slows)}


def per_layer(argv: list, check: Checker, seconds: float) -> tuple:
    w1 = argv + ["--workers", "1"]
    w2 = argv + ["--workers", str(WORKERS)]
    check(_run_cli(w2))  # warm-up
    check.set_reference(check(_run_cli(w1)))
    tracer = Tracer()
    plain1, plain2, traced, rows, gaps = [], [], [], [], []
    patched = 0
    start = time.perf_counter()
    while len(traced) < MIN_CALLS or time.perf_counter() - start < seconds:
        plain2.append(check(_run_cli(w2)).wall)
        plain1.append(check(_run_cli(w1)).wall)
        patched = tracer.install()
        try:
            call = _run_cli(w1)
        finally:
            tracer.uninstall()
        metrics, gap = tracer.summary(call.wall, len(call.text.encode("utf-8")))
        if gap > SELF_SUM_TOL:
            call.problems.append(f"span self times miss the call's wall time "
                                 f"by {gap:.2%}")
        check(call)
        gaps.append(gap)
        traced.append(call.wall)
        rows.append(metrics)
    out = median_metrics(rows)
    out["asm.parallel_speedup"] = statistics.median(plain1) / statistics.median(plain2)
    out["trace.overhead_frac"] = (statistics.median(traced)
                                  / statistics.median(plain1) - 1.0)
    return out, {"workers": 1, "trace_rounds": len(traced),
                 "patched_names": patched, "self_sum_gap_max": max(gaps)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="import and write the inputs, then exit")
    args = ap.parse_args(argv)

    if Path(specmul.__file__).resolve().parent != ROOT / "src" / "specmul":
        print(f"error: imported specmul from {specmul.__file__}, not this "
              f"checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    cli_argv = workload.argv(size, args.seed, args.workdir)
    if args.setup_only:
        return 0

    check = Checker(workload, size)
    if args.trace:
        metrics, extra = per_layer(cli_argv, check, args.seconds)
    else:
        metrics, extra = end_to_end(cli_argv, check, args.seconds,
                                    workload.pair_total(size))
    print(json.dumps({"attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics,
                      "context": {"argv": cli_argv, **extra}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
