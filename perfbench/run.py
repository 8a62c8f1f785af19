"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cg-n3 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  The
workload's job list runs sequentially in this one process, a closed loop
with one client.  With --trace 0 the run first measures SETUP_PROBES fresh
interpreters importing rectbound.cli, then runs every job once and, round
after round, runs again each job that is expected to end within --seconds
of the first job's start.  All the while, perfbench/hostspeed.py samples
the CPU's speed.  The run reports setup_s (the fresh interpreters' median
CPU time), cpu_norm_s (the sum over jobs of each job's median CPU time) and
peak_rss_mb; CPU times are normalised to a fixed CPU speed.  With --trace 1
it runs the list once untraced, then once with the per-layer spans of
perfbench/spans.py installed, and reports the per-layer metrics.

Every job's output is checked (perfbench/checks.py); a job that fails a
check counts as failed.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Per-job times, the environment
and, when traced, every span go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.hostspeed import SpeedProbe  # noqa: E402
from perfbench.jobs import LIFTING_SWEEP, REF_SEED, WORKLOADS, Job, build_jobs, lifting_sweep  # noqa: E402
from perfbench.spans import PER_LAYER, Tracer  # noqa: E402

SETUP_PROBES = 3
# Prints the probe's CPU time and clock once rectbound.cli is imported.
# perf_counter is CLOCK_MONOTONIC on Linux, shared by every process, so the
# parent can subtract its own reading taken before the spawn.
_PROBE = "import time, rectbound.cli; print(repr(time.process_time()), repr(time.perf_counter()))"


@dataclass
class Outcome:
    job: Job
    code: int | None  # None when the job raised
    text: str  # stdout, or the traceback when the job raised
    start: float  # perf_counter() when the job began
    seconds: float
    cpu_seconds: float  # the process's CPU time over the job, every thread


def setup_seconds(probe: SpeedProbe) -> tuple[float, float]:
    """A fresh interpreter, from spawn to `import rectbound.cli` done.

    Returns its CPU time at the probe's nominal CPU speed, and its wall time.
    The probe samples in this process while the child runs.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    cpu, clock = map(float, done.stdout.split()[-2:])
    return probe.at_nominal_speed(cpu, start, clock), clock - start


def run_job(job: Job, tracer: Tracer | None) -> tuple[int, str]:
    if job.argv is None:
        if tracer is None:
            return 0, lifting_sweep()
        # The library job has no cli.main span, so it gets a root of its own.
        idx = tracer.open(f"bench.{LIFTING_SWEEP}")
        try:
            return 0, lifting_sweep()
        finally:
            tracer.close(idx)
    from rectbound import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job.argv))
    return code, out.getvalue()


def _timed(job: Job, tracer: Tracer | None) -> Outcome:
    if tracer is not None:
        tracer.job = job.name
    t0, c0 = perf_counter(), process_time()
    try:
        code, text = run_job(job, tracer)
    except Exception:  # a crashing job is a failed job; the run goes on
        code, text = None, traceback.format_exc()
    return Outcome(job, code, text, t0, perf_counter() - t0, process_time() - c0)


def run_jobs(jobs: list[Job], seconds: float = 0.0, tracer: Tracer | None = None) -> list[Outcome]:
    """Every job once; then, round after round in list order, every job
    whose first time says it still ends within `seconds` of the start."""
    start = perf_counter()
    outcomes = [_timed(job, tracer) for job in jobs]
    first = [o.seconds for o in outcomes]
    ran = True
    while ran:
        ran = False
        for job, estimate in zip(jobs, first):
            if perf_counter() - start + estimate <= seconds:
                outcomes.append(_timed(job, tracer))
                ran = True
    return outcomes


def list_seconds(outcomes: list[Outcome], probe: SpeedProbe | None = None) -> float:
    """Time to run the job list once: each job's median over its executions, summed.

    Without a probe, in wall seconds.  With one, in CPU seconds at the
    probe's nominal CPU speed (see perfbench/hostspeed.py).
    """
    times: dict[str, list[float]] = {}
    for o in outcomes:
        t = o.seconds if probe is None else job_cost(o, probe)
        times.setdefault(o.job.name, []).append(t)
    return sum(statistics.median(t) for t in times.values())


def job_cost(o: Outcome, probe: SpeedProbe) -> float:
    """The execution's CPU time, net of the probe's, at the nominal CPU speed."""
    end = o.start + o.seconds
    return probe.at_nominal_speed(o.cpu_seconds - probe.busy(o.start, end), o.start, end)


def check_outcomes(outcomes: list[Outcome], refs: dict, seed: int) -> list[list[str]]:
    problems = []
    for o in outcomes:
        if o.code is None:
            problems.append([f"raised: {o.text.strip().splitlines()[-1]}"])
            continue
        use_ref = not o.job.varies or seed == refs["seed"]
        ref = refs["outputs"].get(o.job.name) if use_ref else None
        found = checks.check_job(o.job, o.code, o.text, ref)
        if use_ref and o.job.name not in refs["outputs"]:
            found.append("no reference recorded for this job")
        problems.append(found)
    return problems


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _threads() -> int | None:
    """OS threads of this process, OpenBLAS workers included."""
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": _threads(),
        "workload": workload,
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rectbound" / "cli.py").is_file():
        print(f"perfbench: no rectbound sources under {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    setup = []
    if not args.trace:
        with probe:
            setup = [setup_seconds(probe) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import rectbound.cli

    if not Path(rectbound.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported rectbound from {rectbound.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    refs = checks.load_references(args.workload)
    OUT.mkdir(exist_ok=True)

    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs = build_jobs(args.workload, args.seed, Path(tmp))
        with probe:
            if args.trace:
                plain = run_jobs(jobs)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run_jobs(jobs, tracer=tracer)
                finally:
                    tracer.uninstall()
                outcomes = plain + traced
            else:
                outcomes = run_jobs(jobs, args.seconds)
        problems = check_outcomes(outcomes, refs, args.seed)

    env = environment(args.workload, args.seed)
    attempted = len(outcomes)
    failed = sum(1 for found in problems if found)
    if args.trace:
        values = tracer.layer_metrics()
        values["trace.overhead_s"] = list_seconds(traced, probe) - list_seconds(plain, probe)
        values["run.wall_s"] = list_seconds(plain)
        values["run.probe_s"] = probe.median()
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(cpu for cpu, _ in setup), "unit": "s"},
            "cpu_norm_s": {"value": list_seconds(outcomes, probe), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "metrics": metrics,
        "setup_probes_s": [{"cpu_norm": cpu, "wall": wall} for cpu, wall in setup],
        "wall_s": list_seconds(plain if args.trace else outcomes),
        "speed_probe_s": {"median": probe.median(), "samples": len(probe.seconds)},
        "executions": [
            {
                "name": o.job.name,
                "seconds": o.seconds,
                "cpu_seconds": o.cpu_seconds,
                "normalised_s": job_cost(o, probe),
                "traced": bool(args.trace) and i >= len(jobs),
                "exit": o.code,
                "problems": found,
            }
            for i, (o, found) in enumerate(zip(outcomes, problems))
        ],
    }
    if tracer is not None:
        record["job_balance"] = tracer.job_balance()
        tracer.write(OUT / f"spans-{tag}.jsonl")
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} executions={attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    for i, (o, found) in enumerate(zip(outcomes, problems)):
        label = "traced" if args.trace and i >= len(jobs) else ""
        verdict = "ok" if not found else "FAILED: " + "; ".join(found[:3])
        print(f"  {o.job.name:32s} {o.seconds:8.3f} s {label:6s} {verdict}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"wall_s = {record['wall_s']:.6g} s (wall time, not a metric); median probe {probe.median() * 1e6:.1f} us")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} (failed jobs / jobs attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
