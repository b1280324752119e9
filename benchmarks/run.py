"""specmul benchmark: ``specmul measure`` end to end, and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
``--seconds`` may be left out; if given, it must equal ``run_seconds`` of
``BENCHMARK.json``, so that every run measures for the same time.
Each run measures one workload in its own child interpreter
(``measure.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced pass.  The timed end-to-end
metrics (``*_norm*`` and ``setup_s``) are scaled by a calibration task timed
just before each timing (``calibrate.py``), so that the machine's own speed
drift cancels; the unscaled wall-clock figures are printed beside them.
Before the metrics it prints the environment, the instance and why the
workload was chosen; the last line of stdout is the JSON result.  ``--smoke``
runs every workload at a tiny size in both modes and checks that every metric
named in ``BENCHMARK.json`` is emitted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import slowdown  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Unnormalized figures, printed beside the gated metrics but not gated: the
# machine's speed drifts too much for them to meet the bounds.
WALL_CLOCK = {"solve_s": "s", "pairs_per_s": "1/s", "cpu_s": "s",
              "setup_wall_s": "s"}

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 15

# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


def _child(args: list, timeout: float) -> subprocess.CompletedProcess:
    """Run measure.py in a fresh interpreter; on timeout kill its whole
    process group (pool workers included) and wait for it."""
    proc = subprocess.Popen([sys.executable, str(HERE / "measure.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def _setup_s(common: list, deadline: float) -> tuple:
    """Fresh interpreter start to specmul.cli imported with inputs written:
    the times, and the same divided by the slowdown measured before each."""
    times, normed = [], []
    for _ in range(SETUP_REPEATS):
        slow = slowdown()
        t0 = time.perf_counter()
        done = _child(common + ["--setup-only"], deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
        normed.append(times[-1] / slow)
        if done.returncode != 0:
            raise SystemExit(f"setup failed with exit code {done.returncode}")
    return times, normed


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> dict:
    """One run; ``spec`` is BENCHMARK.json, which names the metrics, their
    units and why each workload was chosen."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    wl = WORKLOADS[workload]
    workdir = Path(tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT))
    try:
        common = ["--workload", workload, "--seed", str(seed),
                  "--seconds", repr(seconds), "--trace", str(trace),
                  "--workdir", str(workdir)] + (["--smoke"] if smoke else [])
        setup, setup_normed = ([], []) if trace else _setup_s(common, deadline)
        done = _child(common, deadline - time.monotonic())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"measurement failed with exit code {done.returncode}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if not trace:
        res["metrics"]["setup_s"] = statistics.median(setup_normed)
        res["metrics"]["setup_wall_s"] = statistics.median(setup)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        raise SystemExit(f"metrics not emitted: {missing}")
    size = wl.smoke if smoke else wl.full
    res["context"].update({
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == workload),
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "instance": size,
        "pair_total": wl.pair_total(size),
        "setup_runs": len(setup),
    })
    res["wall_clock"] = {k: {"value": res["metrics"][k], "unit": u}
                         for k, u in WALL_CLOCK.items() if k in res["metrics"]}
    res["metrics"] = {m["name"]: {"value": res["metrics"][m["name"]],
                                  "unit": m["unit"]} for m in wanted}
    return res


def _print(res: dict) -> None:
    ctx = res["context"]
    print(f"# workload {ctx['workload']}: {ctx['why']}")
    print("# " + json.dumps(ctx, sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    for name, m in res["wall_clock"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']} (not normalized)")
    print(f"{'fail_frac':28s} {res['failed'] / res['attempted']:>16.6g} "
          f"({res['failed']} of {res['attempted']} calls)")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": res["metrics"]}))


def smoke(spec: dict) -> int:
    """Every workload of BENCHMARK.json at a tiny size, both modes; exits
    non-zero if a metric is missing or a call fails."""
    bad = 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            res = run_one(spec, wl["name"], seed=1, seconds=0.2, trace=trace,
                          smoke=True)
            _print(res)
            if res["failed"]:
                bad += 1
    print(f"smoke: {'ok' if not bad else f'{bad} runs with failed calls'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="specmul benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time; must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload, both modes; check names")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "specmul" / "cli.py").is_file():
        print(f"error: no specmul sources under {ROOT / 'src'}; run from the "
              f"root of a specmul checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        ap.error(f"--seconds must equal run_seconds of BENCHMARK.json ({seconds})")
    _print(run_one(spec, args.workload, args.seed, seconds, args.trace, False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
