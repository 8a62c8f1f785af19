"""Output checks: a job whose output fails any of them counts as failed.

Two kinds of check run on every job:

* invariants that hold at every seed: exit code 0, every LP status
  "optimal", CG `oracle_max` <= 1 + 1e-9, `smooth_dominates` true,
  `agreement_gap` <= 1e-9, certificates feasible with the closed-form value
  2^(beta n) 2^(-alpha k), protocol compositions meeting their bound with no
  wrong answers, and lifting reports exact over the whole left-side support;
* comparison with the output recorded in perfbench/refs, for jobs whose
  output does not depend on the seed, and for every job at the seed the
  references were recorded at.  Exact rationals must match exactly,
  float-tol and Monte Carlo values within 1e-9 absolute, the scan CSV byte
  for byte (through its SHA-256, so the reference stays small).
  Solver-path fields are not compared, so a valid reformulation
  of a solver is not a failure.

The checker reads the CLI's documented JSON format only; it imports nothing
from rectbound.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .jobs import LIFTING_SWEEP, Job

TOL = 1e-9

ARITH_EXACT = "exact-rational"
CG_SOLVER = "highs-constraint-generation"

# Fields that describe the solver's path rather than the answer.
SOLVER_PATH_KEYS = frozenset({"iterations", "columns", "support", "residual", "oracle_max"})
# Echoes of the input file name, which lives in a per-run directory.
INPUT_ECHO_KEYS = frozenset({"table"})
_SKIPPED = SOLVER_PATH_KEYS | INPUT_ECHO_KEYS

REFS_DIR = Path(__file__).resolve().parent / "refs"


def load_references(workload: str) -> dict:
    """{"seed": int, "outputs": {job name: parsed output, or the CSV's digest}}."""
    return json.loads((REFS_DIR / f"{workload}.json").read_text())


def parse_output(job: Job, text: str):
    """The scan's CSV stays text; every other job prints JSON."""
    if job.argv is not None and job.argv[0] == "scan":
        return text
    return json.loads(text)


def csv_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def check_job(job: Job, code: int, text: str, reference=None) -> list[str]:
    """Every problem found in one job's exit code and output; [] when it passed."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        output = parse_output(job, text)
        problems += invariant_problems(job, output)
        if reference is not None:
            if isinstance(reference, str):
                if csv_digest(text) != reference:
                    problems.append("output differs from the reference byte for byte")
            else:
                problems += compare(reference, output, "")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"output is not in the expected format: {exc!r}")
    return problems


# ------------------------------------------------------------ invariants


def invariant_problems(job: Job, output) -> list[str]:
    if job.name == LIFTING_SWEEP:
        return _lifting_problems(output)
    if isinstance(output, str):
        return _scan_problems(output)
    sub = output.get("subcommand")
    if sub == "bound":
        return _bound_problems(output)
    if sub == "certify":
        return _certify_problems(output)
    if sub == "protocol":
        return _protocol_problems(output)
    return [f"unexpected subcommand {sub!r}"]


def _dicts(doc):
    """Every dict nested anywhere in doc, doc included."""
    if isinstance(doc, dict):
        yield doc
        for value in doc.values():
            yield from _dicts(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _dicts(value)


def _number(tagged) -> Fraction | float:
    if tagged["mode"] == ARITH_EXACT:
        return Fraction(tagged["value"])
    return float(tagged["value"])


def _bound_problems(doc: dict) -> list[str]:
    problems = []
    for d in _dicts(doc):
        if "status" in d and d["status"] != "optimal":
            problems.append(f"status {d['status']!r}")
        if d.get("solver") == CG_SOLVER:
            oracle = d.get("oracle_max")
            if oracle is None or _number(oracle) > 1 + TOL:
                problems.append(f"CG stopped with oracle_max {oracle} above 1 + {TOL}")
        if "agreement_gap" in d and _number(d["agreement_gap"]) > TOL:
            problems.append(f"agreement_gap {d['agreement_gap']['value']} above {TOL}")
    if doc.get("lp") == "smooth" and doc.get("smooth_dominates") is not True:
        problems.append("smooth_dominates is not true")
    return problems


def _certify_problems(doc: dict) -> list[str]:
    problems = []
    if doc["verification"]["feasible"] is not True:
        problems.append("certificate verified infeasible")
    cert = doc["certificate"]
    if cert["kind"] == "search":
        exponent = Fraction(cert["beta"]) * cert["n"] - Fraction(cert["alpha"]) * cert["k"]
        value = _number(doc["value"])
        if exponent.denominator != 1 or value != Fraction(2) ** int(exponent):
            problems.append(f"certificate value {value} is not 2^(beta n) 2^(-alpha k) = 2^{exponent}")
    return problems


def _protocol_problems(doc: dict) -> list[str]:
    problems = []
    if _number(doc["success"]["wrong"]) != 0:
        problems.append(f"wrong answers: {doc['success']['wrong']}")
    compose = doc.get("compose")
    if compose is not None and compose.get("meets_bound") is not True:
        problems.append("composition misses its analytic bound")
    return problems


def _scan_problems(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# rectangle mass scan"):
        return ["scan output does not start with its summary header"]
    header = next((i for i, line in enumerate(lines) if line.startswith("label,")), None)
    if header is None:
        return ["scan output has no CSV header"]
    settings = dict(
        field.split("=", 1) for field in lines[1].lstrip("# ").split() if "=" in field
    )
    expected = int(settings.get("samples", -1)) + 1
    if settings.get("mode") == "sampled" and len(lines) - header - 1 != expected:
        return [f"scan has {len(lines) - header - 1} rows, expected {expected}"]
    return []


def _lifting_problems(records: list) -> list[str]:
    problems = []
    for identity, k, n, m, pairs, lhs_support, diff in records:
        if diff != "0":
            problems.append(f"identity {identity} at (k={k}, n={n}, m={m}) is off by {diff}")
        if pairs != lhs_support:
            problems.append(
                f"identity {identity} at (k={k}, n={n}, m={m}) checked {pairs} of {lhs_support} pairs"
            )
    return problems


# ------------------------------------------------------------ references


def _is_tagged(d: dict) -> bool:
    return isinstance(d.get("mode"), str) and "value" in d


def compare(ref, got, path: str) -> list[str]:
    """Differences between a reference output and a new one."""
    where = path or "output"
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        if _is_tagged(ref):
            if got.get("mode") != ref["mode"] or "value" not in got:
                return [f"{where}: mode {got.get('mode')!r}, expected {ref['mode']!r}"]
            if ref["mode"] == ARITH_EXACT:
                if Fraction(got["value"]) != Fraction(ref["value"]):
                    return [f"{where}: {got['value']} differs from the exact reference {ref['value']}"]
            elif not _close(ref["value"], got["value"]):
                return [f"{where}: {got['value']} is not within {TOL} of {ref['value']}"]
            rest_ref = {k: v for k, v in ref.items() if k not in ("mode", "value")}
            rest_got = {k: v for k, v in got.items() if k not in ("mode", "value")}
            return compare(rest_ref, rest_got, path)
        ref_keys = set(ref) - _SKIPPED
        got_keys = set(got) - _SKIPPED
        if ref_keys != got_keys:
            return [f"{where}: keys {sorted(got_keys ^ ref_keys)} differ from the reference"]
        problems = []
        for key in sorted(ref_keys):
            problems += compare(ref[key], got[key], f"{path}.{key}" if path else key)
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: expected a list of {len(ref)}"]
        problems = []
        for i, (r, g) in enumerate(zip(ref, got)):
            problems += compare(r, g, f"{path}[{i}]")
        return problems
    if isinstance(ref, float):
        if not isinstance(got, (int, float)) or not _close(ref, got):
            return [f"{where}: {got!r} is not within {TOL} of {ref!r}"]
        return []
    if got != ref or type(got) is not type(ref):
        return [f"{where}: {got!r}, expected {ref!r}"]
    return []


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(float(a) - float(b)) <= TOL
