"""Benchmark of the laumut CLI: one workload, one seed, one run.

    python3 bench/run.py --workload {verify,graph,family} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; laumut is imported from its ``src``.
Every job is a ``laumut.cli.main(argv)`` call. The jobs run one after
another inside fresh interpreters that this script starts
(``worker.py``): a closed loop with a single caller and a single thread.

``--trace 0`` measures the end-to-end metrics with tracing off. Times are
scaled to a reference host speed by calibration slices timed in the same
interpreter (see ``worker.py``); the printed lines give the raw times too.
  setup_s      fresh interpreter start until the first job is ready
               (import laumut and input generation); median of
               SETUP_SAMPLES interpreters, the measuring one included;
  wall_s       median time to run the job list once, over the passes run
               in ``--seconds`` (at least the workload's minimum number);
  job_p50_s    median job latency over every job of every pass;
  job_tail_s   job latency at the highest percentile, in steps of 5, that
               leaves at least ten samples beyond it at the minimum number
               of passes; the printed line names it and the sample count;
  peak_rss_mb  ru_maxrss of the measuring interpreter.
failed_frac (failed / attempted jobs) is printed too; the result line
carries it as ``failed`` and ``attempted``.

``--trace 1`` runs two fresh traced interpreters. Each runs the job list
once untraced and once with spans around laumut's public functions
(``tracing.py``), and writes its spans under ``.bench_out/``. Every count
must repeat exactly between the two, otherwise the run fails. Times are
scaled like the end-to-end ones and are the median of the two;
``bench.tracing_overhead_s`` is traced minus untraced wall time.

Job outputs are checked outside the timed passes (``workloads.py``).
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify", "graph", "family")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(mode: str, args, deadline: float, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish before the run's deadline")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = report["setup_done"] - started
    return report


def tail_percentile(min_samples: int) -> int:
    """Highest percentile, in steps of 5, with at least ten of
    ``min_samples`` samples beyond it (50 at least)."""
    p = 95
    while p > 50 and min_samples * (100 - p) < 10 * 100:
        p -= 5
    return p


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def report_failures(failures) -> None:
    for label, reason in failures[:20]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures", file=sys.stderr)


def end_to_end(args, deadline: float):
    reps = [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    rep = run_worker("measure", args, deadline)
    reps.append(rep)
    setups = [r["setup_s"] * r["setup_factor"] for r in reps]
    factors = rep["pass_factors"]
    walls = [w * f for w, f in zip(rep["wall_s"], factors)]
    jobs = [t * f for times, f in zip(rep["job_s"], factors) for t in times]
    p = tail_percentile(rep["jobs_per_pass"] * rep["min_passes"])
    host = f"host speed factors {min(factors):.3f}-{max(factors):.3f}"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters; raw {statistics.median(r['setup_s'] for r in reps):.6g} s"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes of {rep['jobs_per_pass']} jobs; raw {statistics.median(rep['wall_s']):.6g} s; {host}"),
        "job_p50_s": (statistics.median(jobs), "s", f"{len(jobs)} job samples"),
        "job_tail_s": (percentile(jobs, p), "s", f"p{p} of {len(jobs)} job samples"),
        "peak_rss_mb": (rep["maxrss_kb"] / 1024, "MB", "ru_maxrss of the measuring interpreter"),
    }
    failures = rep["failures"]
    failed_frac = len(failures) / rep["attempted"]
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}  ({note})")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} ratio  ({len(failures)} of {rep['attempted']} jobs)")
    report_failures(failures)
    result = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    return len(failures) == 0, rep["attempted"], len(failures), result


def per_layer(args, deadline: float):
    out_dir = ROOT / ".bench_out"
    reps = [
        run_worker("trace", args, deadline, out_dir / f"spans-{args.workload}-{tag}.jsonl")
        for tag in ("a", "b")
    ]
    a, b = (r["metrics"] for r in reps)
    mismatched = [
        f"{name}: {a[name][0]} vs {b[name][0]}"
        for name in a
        if a[name][1] == "count" and a[name][0] != b[name][0]
    ]
    if mismatched:
        raise BenchError("count metrics differ between two traced runs at one seed:\n  " + "\n  ".join(mismatched))
    metrics = {
        name: (statistics.median([a[name][0], b[name][0]]), unit) for name, (_, unit) in a.items()
    }
    metrics["bench.tracing_overhead_s"] = (
        statistics.median([r["traced_wall_s"] - r["untraced_wall_s"] for r in reps]),
        "s",
    )
    failures = reps[0]["failures"] + reps[1]["failures"]
    attempted = reps[0]["attempted"] + reps[1]["attempted"]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    report_failures(failures)
    result = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return len(failures) == 0, attempted, len(failures), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="laumut CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "laumut" / "__init__.py").is_file():
        print(f"no laumut sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
