"""Print every workload's metrics, by name and with units, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs perfbench/run.py once per workload, one after another.  Untraced, it
prints setup_s, cpu_norm_s, peak_rss_mb, wall_s (the job list's wall time,
which is not a metric) and fail_ratio (failed jobs over jobs attempted).  With --trace it prints the per-layer metrics that fired, the
tracing overhead, and per job how far the spans' self times are from
summing to the job's root span.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.jobs import REF_SEED, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    trace = int(args.trace)
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{workload}: run.py exited {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            if metric["value"] or not trace:
                print(f"{workload:16s} {name:58s} {metric['value']:14.6g} {metric['unit']}")
        record = json.loads((HERE / "out" / f"result-{workload}-seed{args.seed}-trace{trace}.json").read_text())
        if not trace:
            print(f"{workload:16s} {'wall_s (not a metric)':58s} {record['wall_s']:14.6g} s")
        failed, attempted = result["failed"], result["attempted"]
        print(f"{workload:16s} {'fail_ratio':58s} {failed / attempted:14.6g} ({failed} of {attempted} jobs)")
        if trace:
            worst = max(abs(b["self_sum_s"] - b["root_busy_s"]) for b in record["job_balance"].values())
            print(f"{workload:16s} {'max |sum of self_s - root busy_s| per job':58s} {worst:14.6g} s")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
