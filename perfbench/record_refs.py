"""Record the reference outputs the checker compares against.

    python3 perfbench/record_refs.py [workload ...]

Runs each workload's job list once at jobs.REF_SEED and writes
perfbench/refs/<workload>.json.  A job that fails an invariant check or
exits nonzero is not recorded and the script exits 1.  Re-record only when
the program's answers are meant to change, and say why in the commit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks  # noqa: E402
from perfbench.jobs import REF_SEED, WORKLOADS, build_jobs  # noqa: E402
from perfbench.run import OUT, SRC, run_jobs  # noqa: E402


def _strip_echoes(doc):
    if isinstance(doc, dict):
        return {k: _strip_echoes(v) for k, v in doc.items() if k not in checks.INPUT_ECHO_KEYS}
    if isinstance(doc, list):
        return [_strip_echoes(v) for v in doc]
    return doc


def record(workload: str) -> bool:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        jobs = build_jobs(workload, REF_SEED, Path(tmp))
        outcomes = run_jobs(jobs)
    outputs = {}
    ok = True
    for o in outcomes:
        found = [o.text] if o.code is None else checks.check_job(o.job, o.code, o.text)
        if found:
            print(f"{workload} {o.job.name}: not recorded: {found}", file=sys.stderr)
            ok = False
            continue
        output = checks.parse_output(o.job, o.text)
        outputs[o.job.name] = checks.csv_digest(output) if isinstance(output, str) else _strip_echoes(output)
    path = checks.REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps({"seed": REF_SEED, "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(outputs)} of {len(jobs)} jobs)")
    return ok


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    results = [record(w) for w in (argv or WORKLOADS)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
