"""One fresh interpreter of the laumut benchmark; started by ``run.py``.

Modes:
  setup    import laumut, build the workload's jobs, report and exit;
  measure  then run the job list untraced, pass after pass, for at least
           ``--seconds`` and the workload's minimum number of passes;
  trace    then run the job list once untraced and once traced, each
           with calibration slices as in measure mode.

Each job calls ``laumut.cli.main(argv)`` in this process with stdout
captured, so it covers parsing, the computation and the JSON output.
Outputs are checked after the timed passes. The report is one JSON
object on stdout; ``setup_done`` is a ``time.perf_counter`` reading,
which on Linux is a system-wide monotonic clock that ``run.py`` compares
with its own reading taken before it started this process.

Host speed. On a 2-core KVM guest (Intel Xeon, Python 3.11.7) the
host's speed changes by up to 45% for minutes at a time (the same pass
of ``graph`` took 2.8 s in one run and 4.1 s a minute later), which no
number of passes inside one run can average out. So measure mode times a fixed calibration
slice (exact-rational and integer-tuple arithmetic, the kind of work
laumut does) before every job and after the last, and scales the pass's
wall time and job latencies by ``CALIBRATION_REF_S / mean slice time``
over the pass: every time reported is in seconds of a host on which one
slice takes ``CALIBRATION_REF_S``. Slices run outside the job timings.
A single slice right after a job is perturbed by that job, so scaling a
job by only the slices around it scattered its latencies across passes
about twice as much as the pass's mean. The raw times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CALIBRATION_REF_S = 0.004  # about one slice on that KVM guest in its usual state
SETUP_SLICES = 20  # after SETUP_WARMUP_SLICES untimed ones, while the slice's code warms up
SETUP_WARMUP_SLICES = 3


def calibration_slice() -> float:
    """Time one fixed slice of pure-Python exact arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 450):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    v = (3, -1, 4, 1, -5, 9, 2, -6)
    total = 0
    for _ in range(1500):
        total += sum(a * b for a, b in zip(v, v))
    return time.perf_counter() - start


def speed_factor(slices: list[float]) -> float:
    return CALIBRATION_REF_S / (sum(slices) / len(slices))


def import_laumut():
    """Import the checkout's laumut, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import laumut

    if Path(laumut.__file__).resolve().parent != SRC / "laumut":
        raise SystemExit(f"imported laumut from {laumut.__file__}, not from {SRC}")


def run_pass(cli, jobs, results, tracer=None, slices=None):
    """Run every job once; append (latency, code, stdout) per job. With a
    ``slices`` list, time a calibration slice before each job and after
    the last. Returns the wall time of the jobs alone."""
    wall = 0.0
    for index, job in enumerate(jobs):
        if slices is not None:
            slices.append(calibration_slice())
        if tracer is not None:
            tracer.job = index
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv)
        latency = time.perf_counter() - t0
        wall += latency
        results.append((latency, code, out.getvalue()))
    if slices is not None:
        slices.append(calibration_slice())
    return wall


def check_outputs(jobs, passes):
    """Check each pass's outputs; a job's check sees its own pass only.
    Returns the list of failures as (job label, reason)."""
    failures = []
    seen: dict[tuple, str | None] = {}
    for results in passes:
        payloads = {}
        for index, (_, code, text) in enumerate(results):
            try:
                payloads[index] = json.loads(text) if text.strip() else None
            except json.JSONDecodeError:
                payloads[index] = None
        for index, (job, (_, code, text)) in enumerate(zip(jobs, results)):
            key = (index, code, text)
            if key not in seen:
                try:
                    seen[key] = job.check(code, payloads[index], payloads)
                except Exception as exc:  # a malformed payload is a wrong answer
                    seen[key] = f"check raised {type(exc).__name__}: {exc}"
            if seen[key] is not None:
                failures.append((job.label, seen[key]))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="where the trace mode writes its spans")
    args = parser.parse_args(argv)

    import_laumut()
    import laumut.cli as cli

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    jobs = workload.jobs
    report = {"setup_done": time.perf_counter(), "jobs_per_pass": len(jobs), "min_passes": workload.min_passes}
    if args.mode != "trace":
        for _ in range(SETUP_WARMUP_SLICES):
            calibration_slice()
        report["setup_factor"] = speed_factor([calibration_slice() for _ in range(SETUP_SLICES)])
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    passes: list[list] = []
    walls: list[float] = []
    if args.mode == "measure":
        factors = report["pass_factors"] = []
        start = time.perf_counter()
        while len(walls) < workload.min_passes or time.perf_counter() - start < args.seconds:
            gc.collect()
            passes.append([])
            slices: list[float] = []
            walls.append(run_pass(cli, jobs, passes[-1], slices=slices))
            factors.append(speed_factor(slices))
    else:
        from tracing import Tracer

        gc.collect()
        passes.append([])
        slices = []
        walls.append(run_pass(cli, jobs, passes[-1], slices=slices))
        report["untraced_wall_s"] = walls[-1] * speed_factor(slices)
        tracer = Tracer()
        tracer.install()
        gc.collect()
        passes.append([])
        slices = []
        tracer.active = True
        traced_wall = run_pass(cli, jobs, passes[-1], tracer, slices=slices)
        tracer.active = False
        factor = speed_factor(slices)
        # Counter time falls inside cli.main's interval but not in its span.
        main_s = (tracer.incl_ns["cli.main"] + tracer.excluded_ns) / 1e9
        metrics = tracer.metrics()
        metrics["bench.other_s"] = (traced_wall - main_s, "s")
        report["metrics"] = {
            name: (value * factor if unit == "s" else value, unit) for name, (value, unit) in metrics.items()
        }
        report["traced_wall_s"] = traced_wall * factor
        if args.spans:
            tracer.write_spans(Path(args.spans))

    failures = check_outputs(jobs, passes)
    report.update(
        wall_s=walls,
        job_s=[[latency for latency, _, _ in results] for results in passes],
        attempted=sum(len(results) for results in passes),
        failures=failures,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
