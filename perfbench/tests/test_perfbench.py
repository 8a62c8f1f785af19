"""The benchmark's own tests: input generator, output checker, span coverage,
host-speed normalisation.

    python3 -m pytest perfbench/tests

The span-coverage tests run every workload once traced (about a minute
and a half on a 2-core machine).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, hostspeed  # noqa: E402
from perfbench.jobs import LIFTING_SWEEP, REF_SEED, WORKLOADS, build_jobs  # noqa: E402
from perfbench.run import check_outcomes, run_jobs  # noqa: E402
from perfbench.spans import PER_LAYER, Tracer  # noqa: E402

# Spans that must fire on each workload: the layer table of perfbench/README.md.
FIRES_ON = {
    "cg-n3": [
        "cli.main",
        "rectangles.max_weight_rectangle",
        "rectangles.max_weight_rectangle_in_rv",
        "lp_bounds.build_lp",
        "lp_bounds.cg",
        "lp_bounds.cg.highs",
        "lp_bounds.cg.pricing",
    ],
    "exact-rational": [
        "cli.main",
        "combinatorics.enumerate_support",
        "rectangles.max_weight_rectangle",
        "rectangles.max_weight_rectangle_in_rv",
        "rectangles.max_weight_rectangle_avoiding_disjoint",
        "lp_bounds.build_lp",
        "lp_bounds.solve_full_enumeration",
        "lp_bounds.exact_simplex",
        "lp_bounds.certificate_build",
        "lp_bounds.verify_certificate",
    ],
    "enum-protocols": [
        "cli.main",
        "combinatorics.check_lemma4",
        "combinatorics.enumerate_support",
        "lp_bounds.scan",
        "protocols.success_probability",
        "protocols.cost_profile",
        "protocols.compose",
    ],
}


def _job_inputs(workload: str, seed: int, workdir: Path) -> list:
    """Each job's argv with table paths replaced by the table's contents."""
    out = []
    for job in build_jobs(workload, seed, workdir):
        argv = list(job.argv or ())
        if "--table" in argv:
            i = argv.index("--table") + 1
            argv[i] = Path(argv[i]).read_text()
        out.append((job.name, tuple(argv)))
    return out


# ------------------------------------------------------------ generator


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _job_inputs(workload, 7, dirs[0])
    again = _job_inputs(workload, 7, dirs[1])
    other = _job_inputs(workload, 8, dirs[2])
    assert first == again
    assert [name for name, _ in first] == [name for name, _ in other]
    # exact-rational deliberately takes no seeded input (see jobs.build_jobs).
    assert (first != other) == (workload != "exact-rational")


def test_seeded_tables_rename_one_fixed_function(tmp_path):
    workload, n = "cg-n3", 3
    from rectbound.truth_tables import TruthTable

    def table(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        job = next(job for job in build_jobs(workload, seed, workdir) if "--table" in (job.argv or ()))
        return TruthTable.from_text(Path(job.argv[job.argv.index("--table") + 1]).read_text())

    def shape(t):
        """Row and column weight multisets: invariant under renaming inputs."""
        side = 1 << t.n
        cols = sorted(sum(t.value(x, y) for x in range(side)) for y in range(side))
        return sorted(row.bit_count() for row in t.rows), cols

    tables = [table(seed) for seed in range(6)]
    assert all(t.n == n and 0 < t.one_count() < 4**n for t in tables)
    assert len({t.rows for t in tables}) > 1
    assert all(shape(t) == shape(tables[0]) for t in tables)


# ------------------------------------------------------------ checker


def _reference(workload: str, name: str):
    return checks.load_references(workload)["outputs"][name]


def _job(workload: str, name: str):
    with tempfile.TemporaryDirectory() as tmp:
        return next(job for job in build_jobs(workload, REF_SEED, Path(tmp)) if job.name == name)


def _problems(workload: str, name: str, output, code: int = 0) -> list[str]:
    ref = _reference(workload, name)
    return checks.check_job(_job(workload, name), code, json.dumps(output), ref)


def test_checker_passes_the_reference_outputs():
    for workload in WORKLOADS:
        for name, ref in checks.load_references(workload)["outputs"].items():
            if isinstance(ref, str):
                continue  # the scan's digest; covered by the byte test below
            assert _problems(workload, name, ref) == [], (workload, name)


def test_checker_ignores_solver_path_fields():
    doc = copy.deepcopy(_reference("cg-n3", "smooth-DISJ-n3"))
    doc["result"]["iterations"] += 40
    doc["result"]["columns"] += 40
    doc["result"]["support"] -= 3
    doc["result"]["residual"]["value"] = 1e-13
    doc["result"]["oracle_max"]["value"] = 1.0
    assert _problems("cg-n3", "smooth-DISJ-n3", doc) == []


def test_checker_fails_a_nudged_float_optimum():
    doc = copy.deepcopy(_reference("cg-n3", "smooth-IP-n3"))
    doc["result"]["optimum"]["value"] += 1 / 1000
    assert _problems("cg-n3", "smooth-IP-n3", doc)


def test_checker_fails_a_nudged_exact_optimum():
    doc = copy.deepcopy(_reference("exact-rational", "smooth-DISJ-n2-exact"))
    from fractions import Fraction

    doc["result"]["optimum"]["value"] = str(Fraction(doc["result"]["optimum"]["value"]) + Fraction(1, 1000))
    assert _problems("exact-rational", "smooth-DISJ-n2-exact", doc)


def test_checker_fails_an_infeasible_certificate():
    doc = copy.deepcopy(_reference("exact-rational", "certify-search-n5"))
    doc["verification"]["feasible"] = False
    problems = checks.check_job(_job("exact-rational", "certify-search-n5"), 0, json.dumps(doc))
    assert "certificate verified infeasible" in problems


def test_checker_fails_a_wrong_certificate_value():
    doc = copy.deepcopy(_reference("exact-rational", "certify-search-n4-exhaustive"))
    doc["value"]["value"] = "1"
    assert checks.check_job(_job("exact-rational", "certify-search-n4-exhaustive"), 0, json.dumps(doc))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["result"].__setitem__("status", "unbounded"),
        lambda d: d.__setitem__("smooth_dominates", False),
        lambda d: d["result"]["oracle_max"].__setitem__("value", 1.01),
    ],
)
def test_checker_fails_broken_cg_invariants(edit):
    doc = copy.deepcopy(_reference("cg-n3", "smooth-random-n3"))
    edit(doc)
    # Seeded job: the invariants alone must catch it, without a reference.
    assert checks.check_job(_job("cg-n3", "smooth-random-n3"), 0, json.dumps(doc))


def test_checker_fails_a_solver_disagreement():
    doc = copy.deepcopy(_reference("exact-rational", "smooth-random-n2-both"))
    doc["result"]["agreement_gap"]["value"] = 1e-6
    assert checks.check_job(_job("exact-rational", "smooth-random-n2-both"), 0, json.dumps(doc))


def test_checker_fails_wrong_protocol_answers_and_missed_bounds():
    doc = copy.deepcopy(_reference("enum-protocols", "halving-ndisj-n8-k2-mc"))
    doc["success"]["wrong"]["value"] = 0.001
    assert checks.check_job(_job("enum-protocols", "halving-ndisj-n8-k2-mc"), 0, json.dumps(doc))
    doc = copy.deepcopy(_reference("enum-protocols", "halving-ndisj-n8-s2"))
    doc["compose"]["meets_bound"] = False
    assert checks.check_job(_job("enum-protocols", "halving-ndisj-n8-s2"), 0, json.dumps(doc))


def test_checker_fails_a_broken_lifting_report():
    records = copy.deepcopy(_reference("enum-protocols", LIFTING_SWEEP))
    records[10][6] = "1/7"
    assert _problems("enum-protocols", LIFTING_SWEEP, records)
    records = copy.deepcopy(_reference("enum-protocols", LIFTING_SWEEP))
    records[10][4] -= 1
    assert _problems("enum-protocols", LIFTING_SWEEP, records)


def test_checker_fails_malformed_output_without_crashing():
    job = _job("exact-rational", "certify-search-n5")
    assert checks.check_job(job, 0, "not json")
    assert checks.check_job(job, 0, json.dumps({"subcommand": "certify"}))
    doc = copy.deepcopy(_reference("exact-rational", "certify-search-n5"))
    doc["value"]["value"] = "one half"
    assert checks.check_job(job, 0, json.dumps(doc), _reference("exact-rational", "certify-search-n5"))


def test_checker_fails_a_nonzero_exit():
    ref = _reference("cg-n3", "smooth-EQ-n3")
    assert _problems("cg-n3", "smooth-EQ-n3", ref, code=2) == ["exit code 2"]


def test_checker_compares_the_scan_byte_for_byte(tmp_path):
    job = next(j for j in build_jobs("enum-protocols", REF_SEED, tmp_path) if j.name == "scan-n12")
    outcome = run_jobs([job])[0]
    ref = _reference("enum-protocols", "scan-n12")
    assert checks.check_job(job, outcome.code, outcome.text, ref) == []
    last = outcome.text[-2]
    changed = outcome.text[:-2] + ("1" if last != "1" else "2") + "\n"
    assert checks.check_job(job, 0, changed, ref)


# ------------------------------------------------------------ spans


@pytest.fixture(scope="module")
def traced():
    """Each workload's job list run once under the tracer, at seed 1."""
    results = {}
    base = ROOT / "perfbench" / "out"
    base.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        workdir = base / f"test-{workload}"
        workdir.mkdir(exist_ok=True)
        try:
            jobs = build_jobs(workload, 1, workdir)
            tracer = Tracer()
            tracer.install()
            try:
                outcomes = run_jobs(jobs, tracer=tracer)
            finally:
                tracer.uninstall()
        finally:
            shutil.rmtree(workdir)
        results[workload] = (tracer, outcomes)
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_span_fires(traced, workload):
    tracer, outcomes = traced[workload]
    metrics = tracer.layer_metrics()
    silent = [name for name in FIRES_ON[workload] if metrics[f"{name}.calls"] == 0]
    assert silent == []
    refs = checks.load_references(workload)
    assert all(found == [] for found in check_outcomes(outcomes, refs, 1))


def test_oracle_counts_split_float_and_exact(traced):
    cg = traced["cg-n3"][0].layer_metrics()
    exact = traced["exact-rational"][0].layer_metrics()
    assert cg["rectangles.max_weight_rectangle.exact_calls"] == 0
    assert exact["rectangles.max_weight_rectangle.exact_calls"] > 0
    assert exact["rectangles.max_weight_rectangle_avoiding_disjoint.exact_calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_partition_each_job(traced, workload):
    tracer, outcomes = traced[workload]
    balance = tracer.job_balance()
    assert set(balance) == {o.job.name for o in outcomes}
    for job, entry in balance.items():
        assert entry["roots"] == ["bench.lifting-sweep" if job == LIFTING_SWEEP else "cli.main"]
        assert entry["self_sum_s"] == pytest.approx(entry["root_busy_s"], rel=1e-9, abs=1e-9)


def test_uninstall_restores_every_binding():
    import rectbound.lp_bounds as lp_bounds
    import rectbound.lp_bounds.model as model
    import rectbound.lp_bounds.solve as solve

    before = (solve.solve_constraint_generation, lp_bounds.solve_constraint_generation, solve.linprog,
              model.RectangleFamily.separation_oracle, model.max_weight_rectangle)
    tracer = Tracer()
    tracer.install()
    try:
        assert solve.solve_constraint_generation is lp_bounds.solve_constraint_generation
        assert solve.solve_constraint_generation is not before[0]
        assert model.max_weight_rectangle is not before[4]
    finally:
        tracer.uninstall()
    after = (solve.solve_constraint_generation, lp_bounds.solve_constraint_generation, solve.linprog,
             model.RectangleFamily.separation_oracle, model.max_weight_rectangle)
    assert all(a is b for a, b in zip(before, after))


# ------------------------------------------------------------ host speed


def _probe_with(samples):
    """A probe holding (start, timed CPU seconds, handler CPU seconds) samples."""
    probe = hostspeed.SpeedProbe()
    for start, timed, spent in samples:
        probe.starts.append(start)
        probe.seconds.append(timed)
        probe.spent.append(spent)
    return probe


def test_cpu_time_scales_by_the_probe_and_its_cost_is_counted():
    nominal = hostspeed.NOMINAL_S
    # The CPU runs the probe at half the nominal speed for the whole job;
    # one sample was hit by an interrupt.
    samples = [(10.0 + i / 10, 2 * nominal, 0.001) for i in range(41)]
    samples[7] = (10.7, 40 * nominal, 0.001)
    probe = _probe_with(samples)
    assert probe.busy(10.0, 14.0) == pytest.approx(41 * 0.001)
    assert probe.at_nominal_speed(3.5, 10.0, 14.0) == pytest.approx(3.5 / 2)


def test_a_short_interval_is_scaled_by_the_probes_around_it():
    nominal = hostspeed.NOMINAL_S
    fast = [(float(t), nominal, 0.0) for t in range(0, 10)]
    slow = [(float(t), 3 * nominal, 0.0) for t in range(10, 20)]
    probe = _probe_with(fast + slow)
    # No sample inside [9.6, 9.7]; the 2 s window around it holds 9 and 10,
    # whose median lies halfway.
    assert probe.speed(9.6, 9.7) == pytest.approx(2 * nominal)
    assert probe.at_nominal_speed(0.1, 14.2, 14.3) == pytest.approx(0.1 / 3)
    # Past the last sample, the nearest one is used.
    assert probe.speed(30.0, 30.1) == pytest.approx(3 * nominal)


def test_the_probe_samples_while_a_job_runs_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        end = perf_counter() + 0.5
        while perf_counter() < end:
            sum(i * i for i in range(1000))
    assert len(probe.seconds) >= 3
    assert all(0 < t <= s for t, s in zip(probe.seconds, probe.spent))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ------------------------------------------------------------ contract


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "cpu_norm_s", "peak_rss_mb"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cg-n3", "--seed", "1", "--seconds", "5"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
