"""End-to-end runs of the command line, in process via main()."""

import dataclasses
import hashlib
import json
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rectbound.cli import main
from rectbound.lp_bounds import build_search_dual_certificate, certificate_to_json
from rectbound.truth_tables import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_bound_lovasz_and(capsys):
    code, doc, err = run_json(
        capsys, "bound", "--lp", "lovasz", "--family", "AND", "--n", "1"
    )
    assert code == 0
    assert doc["subcommand"] == "bound"
    assert doc["family"] == "AND"
    result = doc["result"]
    assert result["status"] == "optimal"
    assert result["optimum"] == {"mode": "exact-rational", "value": "1"}
    assert result["log2_optimum"]["value"] == 0.0
    assert result["support"] == 1
    assert "runtime:" in err  # timing stays off stdout


def test_bound_family_is_case_insensitive(capsys):
    code, doc, _ = run_json(capsys, "bound", "--lp", "lovasz", "--family", "and", "--n", "1")
    assert code == 0
    assert doc["family"] == "AND"


def test_bound_smooth_reports_both_lps(capsys):
    code, doc, _ = run_json(
        capsys, "bound", "--lp", "smooth", "--family", "NDISJ", "--n", "2"
    )
    assert code == 0
    assert doc["result"]["optimum"]["value"] == "5/2"
    assert doc["lovasz_result"]["optimum"]["value"] == "2"
    assert doc["smooth_dominates"] is True


def test_bound_search_both_solvers_agree(capsys):
    code, doc, _ = run_json(
        capsys, "bound", "--lp", "search", "--n", "2", "--k", "1", "--solver", "both"
    )
    assert code == 0
    assert doc["sigma"] == {"mode": "exact-rational", "value": "1"}
    exact = doc["result"]["exact"]
    cg = doc["result"]["cg"]
    assert exact["optimum"]["value"] == "3"
    assert cg["optimum"]["value"] == pytest.approx(3.0, abs=1e-9)
    assert cg["oracle_max"]["value"] <= 1.0 + 1e-9
    assert doc["result"]["agreement_gap"]["value"] <= 1e-9


def test_bound_both_solvers_disagreeing_exits_2(capsys, monkeypatch):
    import dataclasses

    import rectbound.cli

    real = rectbound.cli.solve_constraint_generation

    def shifted(lp, **kwargs):
        res = real(lp, **kwargs)
        return dataclasses.replace(res, optimum=res.optimum + 1e-6)

    monkeypatch.setattr(rectbound.cli, "solve_constraint_generation", shifted)
    code, doc, _ = run_json(
        capsys, "bound", "--lp", "search", "--n", "2", "--k", "1", "--solver", "both"
    )
    assert code == 2
    assert doc["result"]["exact"]["status"] == doc["result"]["cg"]["status"] == "optimal"
    assert doc["result"]["agreement_gap"]["value"] == pytest.approx(1e-6, rel=1e-6)


def test_bound_smooth_seeds_the_lovasz_cg_from_the_smooth_support(capsys):
    # The smooth optimum is a feasible Lovász point, so the Lovász master that
    # starts from its support needs fewer rounds than a cold one (10 here).
    args = ("--family", "DISJ", "--n", "3", "--solver", "cg", "--eps", "1/4")
    code, smooth, _ = run_json(capsys, "bound", "--lp", "smooth", *args)
    assert code == 0
    code, lovasz, _ = run_json(capsys, "bound", "--lp", "lovasz", *args)
    assert code == 0
    seeded, cold = smooth["lovasz_result"], lovasz["result"]
    assert seeded["status"] == cold["status"] == "optimal"
    assert seeded["iterations"] < cold["iterations"]
    assert abs(seeded["optimum"]["value"] - 33 / 16) <= 1e-9


def test_bound_flag_conflicts_exit_1(capsys):
    code, out, err = run_cli(
        capsys, "bound", "--lp", "search", "--n", "2", "--k", "1", "--family", "AND"
    )
    assert code == 1
    assert out == ""
    assert "error" in err
    code, _, _ = run_cli(capsys, "bound", "--lp", "lovasz", "--family", "AND", "--n", "1", "--sigma", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "bound", "--lp", "lovasz", "--family", "WAT", "--n", "1")
    assert code == 1


def test_bound_table_file(capsys, tmp_path):
    table = tmp_path / "and.txt"
    table.write_text("1\n00\n01\n")
    code, doc, _ = run_json(capsys, "bound", "--lp", "lovasz", "--table", str(table))
    assert code == 0
    assert doc["table"] == str(table)
    assert doc["result"]["optimum"]["value"] == "1"


def test_certify_search_passes(capsys):
    code, doc, _ = run_json(
        capsys,
        "certify", "--kind", "search",
        "--n", "3", "--k", "1", "--m", "1", "--alpha", "1", "--beta", "1/3",
    )
    assert code == 0
    cert = doc["certificate"]
    assert cert["universe"] == 4
    assert cert["phi_support"] == 24
    assert cert["psi_support"] == 6
    assert doc["value"] == {"mode": "exact-rational", "value": "1"}
    ver = doc["verification"]
    assert ver["feasible"] is True
    assert ver["mode"] == "exhaustive"
    assert ver["max_rectangle_weight"]["value"] == "1/6"
    assert "witness" not in ver


def test_certify_inflated_scale_fails_with_witness(capsys):
    code, doc, _ = run_json(
        capsys,
        "certify", "--kind", "search",
        "--n", "3", "--k", "1", "--m", "1", "--alpha", "1", "--beta", "2",
    )
    assert code == 2
    assert doc["value"]["value"] == "32"
    ver = doc["verification"]
    assert ver["feasible"] is False
    assert ver["max_rectangle_weight"]["value"] == "16/3"
    assert ver["witness"] == {"n": 4, "rows": [3], "cols": [5, 9]}
    assert ver["witness_coords"] == [1]


def test_certify_save_and_reload(capsys, tmp_path):
    saved = tmp_path / "cert.json"
    code, first, _ = run_json(
        capsys,
        "certify", "--kind", "search",
        "--n", "2", "--k", "1", "--m", "1", "--alpha", "1", "--beta", "1/2",
        "--save", str(saved),
    )
    assert code == 0
    code, second, _ = run_json(capsys, "certify", "--certificate", str(saved))
    assert code == 0
    assert second["certificate"] == first["certificate"]
    assert second["value"] == first["value"]
    # construction flags conflict with --certificate
    code, _, err = run_cli(capsys, "certify", "--certificate", str(saved), "--n", "2")
    assert code == 1
    assert "error" in err


def test_certify_eps_is_smooth_only(capsys):
    code, _, err = run_cli(
        capsys,
        "certify", "--kind", "search",
        "--n", "2", "--k", "1", "--m", "1", "--alpha", "1", "--beta", "1/2",
        "--eps", "1/8",
    )
    assert code == 1
    code, doc, _ = run_json(
        capsys, "certify", "--kind", "smooth", "--n", "4", "--beta", "1/4", "--eps", "1/8"
    )
    assert code == 0
    assert doc["value"]["value"] == "7/4"
    assert doc["certificate"]["degenerate"] is True


def test_scan_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--n", "8", "--seed", "7", "--samples", "1000"
    )
    assert code == 0
    assert "# flagged=0 above_bar=465 min_ratio=455/486" in out
    code, again, _ = run_cli(
        capsys, "scan", "--n", "8", "--seed", "7", "--samples", "1000"
    )
    assert again == out  # byte identical rerun


def test_scan_negative_gamma_warns(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--n", "8", "--seed", "7", "--samples", "10", "--gamma", "-2"
    )
    assert code == 0
    assert "bar=65536.0" in out
    assert "# warning: empty population, no scanned rectangle clears the bar" in out


def test_scan_requires_seed(capsys):
    code, out, err = run_cli(capsys, "scan", "--n", "8", "--samples", "10")
    assert code == 1
    assert "--seed" in err


def test_protocol_trivial_ndisj_exact(capsys):
    code, doc, _ = run_json(capsys, "protocol", "--proto", "trivial-ndisj", "--n", "3")
    assert code == 0
    assert doc["worst_cost"] == 4
    success = doc["success"]
    assert success["mode"] == "exact-rational"
    assert success["worst"]["value"] == "1"
    assert success["inputs_checked"] == 64
    assert doc["bits"]["histogram"] == {"4": 64}
    assert doc["bits"]["uniform"] is True


def test_protocol_trivial_ndisj_past_the_exact_cap_is_sampled(capsys):
    # n = 13 has 2^26 input pairs: refused as exact, measured on a seeded sample.
    code, out, err = run_cli(capsys, "protocol", "--proto", "trivial-ndisj", "--n", "13")
    assert code == 1
    assert out == ""
    assert "2^26 input pairs" in err and "RECTBOUND_EXACT_PROTOCOL_CAP" in err
    assert "--samples" in err
    code, doc, _ = run_json(
        capsys,
        "protocol", "--proto", "trivial-ndisj", "--n", "13", "--samples", "200", "--seed", "1",
    )
    assert code == 0
    assert doc["worst_cost"] == 14
    assert doc["success"]["mode"] == "monte-carlo-ci"
    assert doc["success"]["inputs_checked"] == 200


def test_protocol_halving_composition(capsys):
    code, doc, _ = run_json(
        capsys,
        "protocol", "--proto", "trivial-ndisj-kfold",
        "--n", "8", "--k", "1", "--compose", "halving", "--s", "2",
        "--samples", "200", "--seed", "3",
    )
    assert code == 0
    comp = doc["compose"]
    assert comp["kind"] == "halving"
    assert comp["breakdown"]["total"] == 33
    assert comp["breakdown"]["calls"] == 3
    assert comp["analytic_bound"]["value"] == "1"
    assert comp["meets_bound"] is True
    assert doc["worst_cost"] == 33


def test_protocol_permute_composition(capsys):
    code, doc, _ = run_json(
        capsys,
        "protocol", "--proto", "trivial-search-kfold",
        "--n", "2", "--k", "2", "--compose", "permute", "--choose", "1",
        "--verify-wrap", "explicit",
    )
    assert code == 0
    comp = doc["compose"]
    assert comp["branches"] == 24
    assert comp["promise_inputs"] == 175
    assert comp["bound_outside"]["value"] == "1/2"
    assert comp["bound_inside"]["value"] == "1/2"
    assert comp["meets_bound"] is True
    assert doc["success"]["worst"]["value"] == "1"
    assert doc["worst_cost"] == 14  # base 10 plus explicit audit of 2 slots


def test_protocol_monte_carlo_mode(capsys):
    code, doc, _ = run_json(
        capsys,
        "protocol", "--proto", "trivial-ndisj-kfold",
        "--n", "8", "--k", "2", "--samples", "400", "--seed", "11",
    )
    assert code == 0
    success = doc["success"]
    assert success["mode"] == "monte-carlo-ci"
    assert success["inputs_checked"] == 400
    lo, hi = success["average"]["ci95"]
    assert 0.99 <= lo <= hi <= 1.0
    assert doc["bits"]["histogram"] == {"18": 400}


def _sampled_bits_run(capsys, proto):
    """A 600-draw seed-11 run's bits doc, checked against the profile of the
    first 512 draws; also the profile of the last 512, for comparison."""
    from rectbound.cli import _bits_doc
    from rectbound.protocols import TaskSpec, measured_inputs, success_probability

    code, doc, _ = run_json(
        capsys,
        "protocol", "--proto", "trivial-ndisj-kfold",
        "--n", "8", "--k", "2", "--samples", "600", "--seed", "11",
    )
    assert code == 0
    assert doc["success"]["inputs_checked"] == 600
    assert doc["success"]["worst_input"] == [59294, 61033]  # the first draw
    assert sum(doc["bits"]["histogram"].values()) == 512
    task = TaskSpec("ndisj-kfold", 8, 2)
    sample, sampled = measured_inputs(task, 600, 11)
    sample = list(sample)
    assert sampled

    def bits(inputs):
        return _bits_doc(proto, success_probability(proto, task, inputs=inputs))

    assert doc["bits"] == bits(sample[:512])
    return doc["bits"], bits(sample[88:])


def test_protocol_sampled_bits_probe_is_the_first_512_draws(capsys):
    from rectbound.protocols import trivial_ndisj_kfold

    doc_bits, _ = _sampled_bits_run(capsys, trivial_ndisj_kfold(8, 2))
    assert doc_bits["histogram"] == {"18": 512}


def test_protocol_sampled_bits_probe_tells_the_first_512_draws_from_others(capsys, monkeypatch):
    import rectbound.cli
    from rectbound.protocols import trivial_ndisj_kfold

    # Transcripts cut to 10 + (x + y) % 7 bits, so lengths vary by input.
    real = trivial_ndisj_kfold(8, 2)

    def run_fn(x, y):
        output, bits, length = real.run_fn(x, y)
        cut = min(length, 10 + (x + y) % 7)
        return output, bits & ((1 << cut) - 1), cut

    proto = dataclasses.replace(real, run_fn=run_fn)
    monkeypatch.setattr(rectbound.cli, "trivial_ndisj_kfold", lambda n, k: proto)
    doc_bits, last_512 = _sampled_bits_run(capsys, proto)
    assert doc_bits["uniform"] is False
    assert doc_bits != last_512


def test_protocol_runs_each_input_and_branch_once(capsys, monkeypatch):
    import rectbound.cli
    from rectbound.protocols import trivial_ndisj_kfold

    calls = []
    real = trivial_ndisj_kfold(2, 2)

    def counted(x, y):
        calls.append((x, y))
        return real.run_fn(x, y)

    proto = dataclasses.replace(real, run_fn=counted)
    monkeypatch.setattr(rectbound.cli, "trivial_ndisj_kfold", lambda n, k: proto)
    code, doc, _ = run_json(capsys, "protocol", "--proto", "trivial-ndisj-kfold", "--n", "2", "--k", "2")
    assert code == 0
    assert doc["success"]["mode"] == "exact-rational"
    assert doc["bits"]["histogram"] == {"6": 256}
    # 256 inputs x 1 branch, each run once for both success and bits
    assert len(calls) == doc["success"]["inputs_checked"] == 256
    assert len(set(calls)) == 256


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_malformed_cap_override_is_a_plain_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("RECTBOUND_SUPPORT_CAP", raw)
    code, out, err = run_cli(
        capsys, "certify", "--kind", "search", "--n", "3", "--k", "1", "--m", "1",
        "--alpha", "1", "--beta", "1/3",
    )
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("rectbound: error:") == 1
    assert "RECTBOUND_SUPPORT_CAP" in err


_PERMUTE = "protocol --proto trivial-search-kfold --n 4 --k 2 --compose permute --choose 1"
_NDISJ_MC = "protocol --proto trivial-ndisj-kfold --n 8 --k 2"
_NDISJ_EXACT = "protocol --proto trivial-ndisj-kfold --n 2 --k 2"
_SEARCH_CERT = "certify --kind search --n 3 --k 1 --m 1 --alpha 1 --beta 1/3"
_SMOOTH_CERT = "certify --kind smooth --n 4 --beta 1/4"
_LOAD_CERT = "certify --certificate {tmp}/cert.json"
_NOT_UTF8 = b"2\n\xff\xfe\n"


def _saved_certificate(phi) -> bytes:
    """A saved search certificate whose `phi` records are replaced, or removed when None."""
    doc = certificate_to_json(build_search_dual_certificate(3, 1, 1, 1, Fraction(1, 3)))
    if phi is None:
        del doc["phi"]
    else:
        doc["phi"] = phi
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "command, env, files",
    [
        pytest.param("scan --n 8 --seed 1 --densities abc", {}, {}, id="densities-abc"),
        pytest.param("scan --n 8 --seed 1 --densities ,", {}, {}, id="densities-comma"),
        pytest.param(f"{_PERMUTE} --perm-samples 0 --seed 1", {}, {}, id="perm-samples-0"),
        pytest.param(f"{_PERMUTE} --perm-samples -3 --seed 1", {}, {}, id="perm-samples-neg"),
        pytest.param(f"{_NDISJ_MC} --samples 0 --seed 1", {}, {}, id="samples-0"),
        pytest.param(f"{_NDISJ_MC} --samples -3 --seed 1", {}, {}, id="samples-neg"),
        pytest.param(f"{_NDISJ_EXACT} --samples 0 --seed 1", {}, {}, id="samples-0-exact"),
        pytest.param("scan --n 8 --seed 1 --samples 0", {}, {}, id="scan-samples-0"),
        pytest.param("scan --n 8 --seed 1 --samples -3", {}, {}, id="scan-samples-neg"),
        pytest.param("scan --n 4 --m 1 --seed 1 --samples 0", {}, {}, id="scan-samples-0-exhaustive"),
        pytest.param("scan --n 8 --samples 5 --seed 1 --gamma -200", {}, {}, id="scan-gamma-overflow"),
        pytest.param("scan --n 8 --samples 5 --seed 1 --delta -200", {}, {}, id="scan-delta-overflow"),
        pytest.param("scan --n 8 --seed -1 --samples 5", {}, {}, id="scan-seed-neg"),
        pytest.param("scan --n 4 --m 1 --seed -1", {}, {}, id="scan-seed-neg-exhaustive"),
        pytest.param(f"{_SEARCH_CERT} --tol -1", {}, {}, id="tol-negative"),
        pytest.param(f"{_SEARCH_CERT} --save {{tmp}}/missing/cert.json", {}, {}, id="save-unwritable"),
        pytest.param("bound --lp search --n 2 --k 1 --out {tmp}/missing/x.json", {}, {}, id="out-unwritable"),
        pytest.param(f"{_SEARCH_CERT} --eps 1/4 --save {{tmp}}/cert.json", {}, {}, id="eps-save"),
        pytest.param(f"{_SMOOTH_CERT} --eps 2 --save {{tmp}}/cert.json", {}, {}, id="eps-past-one-half"),
        pytest.param(f"{_SMOOTH_CERT} --eps=-1 --save {{tmp}}/cert.json", {}, {}, id="eps-negative"),
        pytest.param("protocol --proto trivial-ndisj --n 3 --s 3", {}, {}, id="s-without-compose"),
        pytest.param(
            "protocol --proto trivial-search-kfold --n 2 --k 1 --choose 1", {}, {}, id="choose-without-compose"
        ),
        pytest.param(
            "protocol --proto trivial-search-kfold --n 2 --k 1 --perm-samples 4 --seed 1",
            {},
            {},
            id="perm-samples-without-compose",
        ),
        pytest.param(
            "protocol --proto trivial-ndisj-kfold --n 2 --k 1 --compose halving --s 1 --choose 1",
            {},
            {},
            id="choose-with-halving",
        ),
        pytest.param("bound --lp search --n 2 --k 1 --sigma 1/0", {}, {}, id="sigma-div-zero"),
        pytest.param("bound --lp lovasz --table {tmp}/missing.txt", {}, {}, id="missing-table"),
        pytest.param(_SEARCH_CERT, {"RECTBOUND_SUPPORT_CAP": "1.5"}, {}, id="support-cap"),
        *(
            pytest.param(f"bound --lp lovasz --family {name} --n -1", {}, {}, id=f"family-{name}-n-negative")
            for name in FAMILIES
        ),
        pytest.param("bound --lp smooth --family EQ --n 30", {}, {}, id="family-n-past-the-limit"),
        pytest.param(
            "bound --lp lovasz --table {tmp}/t.txt", {}, {"t.txt": _NOT_UTF8}, id="table-not-utf8"
        ),
        pytest.param(
            "bound --lp lovasz --table {tmp}/t.txt", {}, {"t.txt": b"20000\n0\n"}, id="table-huge-n"
        ),
        pytest.param(_LOAD_CERT, {}, {"cert.json": _NOT_UTF8}, id="certificate-not-utf8"),
        pytest.param(_LOAD_CERT, {}, {"cert.json": b'{"a":'}, id="certificate-bad-json"),
        pytest.param(_LOAD_CERT, {}, {"cert.json": b"{}"}, id="certificate-empty-object"),
        pytest.param(
            _LOAD_CERT, {}, {"cert.json": _saved_certificate(None)}, id="certificate-no-phi"
        ),
        pytest.param(
            _LOAD_CERT,
            {},
            {"cert.json": _saved_certificate([["0100", "0010"]])},
            id="certificate-two-field-record",
        ),
    ],
)
def test_bad_invocations_are_refused_cleanly(capsys, monkeypatch, tmp_path, command, env, files):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run_cli(capsys, *shlex.split(command.format(tmp=tmp_path)))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.count("error:") == 1
    assert err.splitlines()[-1].startswith("rectbound")
    # a refused run writes no file
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("command", [f"{_NDISJ_MC} --samples 0", f"{_NDISJ_MC} --samples -3", f"{_NDISJ_EXACT} --samples 0"])
def test_protocol_samples_below_one_names_the_flag(capsys, command):
    # refused before any protocol runs, also where an exact run would not sample
    code, out, err = run_cli(capsys, *command.split(), "--seed", "1")
    assert code == 1
    assert out == ""
    assert "--samples must be at least 1" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("scan --n 8 --seed 1 --samples 0", "--samples must be at least 1"),
        ("scan --n 8 --seed 1 --samples -3", "--samples must be at least 1"),
        (f"{_SEARCH_CERT} --tol -1", "--tol must be nonnegative"),
        ("scan --n 8 --samples 5 --seed 1 --gamma -200", "--gamma -200.0 is out of range at n=8"),
        ("scan --n 8 --samples 5 --seed 1 --delta -200", "--delta -200.0 is out of range at n=8"),
        ("scan --n 8 --samples 5 --seed -1", "seed must be nonnegative, got -1"),
        ("scan --n 4 --m 1 --seed -1", "seed must be nonnegative, got -1"),
    ],
    ids=[
        "scan-samples-0",
        "scan-samples-neg",
        "certify-tol-neg",
        "scan-gamma-overflow",
        "scan-delta-overflow",
        "scan-seed-neg",
        "scan-seed-neg-exhaustive",
    ],
)
def test_scan_samples_and_certify_tol_refusals_name_the_flag(capsys, monkeypatch, command, message):
    import rectbound.cli

    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the flag")

    # refused before the scan runs or the certificate is built
    monkeypatch.setattr(rectbound.cli, "sampling_lemma_scan", no_work)
    monkeypatch.setattr(rectbound.cli, "build_search_dual_certificate", no_work)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "command",
    ["bound --lp smooth --family DISJ --n 4 --solver exact", "bound --lp search --n 4 --k 1 --solver exact"],
)
def test_exact_lp_past_the_cells_limit_is_refused_before_enumeration(capsys, command):
    start = time.process_time()
    code, out, err = run_cli(capsys, *command.split())
    assert time.process_time() - start < 1
    assert code == 1
    assert out == ""
    assert "LP cells" in err
    assert "use constraint generation" in err


def test_one_parser_per_process(capsys, monkeypatch):
    # build_parser runs on the first main call only; the later calls, a usage
    # error among them, reuse its parser.
    import rectbound.cli as cli

    built = []
    real = cli.build_parser

    def counting():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        runs = [run_cli(capsys, "bound", "--lp", "lovasz", "--family", "AND", "--n", "1") for _ in range(2)]
        code, out, err = run_cli(capsys, "bound", "--lp", "nonesuch")
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert [code for code, _, _ in runs] == [0, 0]
    assert runs[0][1] == runs[1][1] != ""
    assert code == 1
    assert out == ""
    assert err.startswith("usage: rectbound bound")


def test_protocol_mc_requires_seed(capsys):
    code, _, err = run_cli(
        capsys, "protocol", "--proto", "trivial-ndisj-kfold", "--n", "8", "--k", "2"
    )
    assert code == 1
    assert "--samples and --seed" in err


def test_protocol_flag_conflicts(capsys):
    code, _, err = run_cli(
        capsys, "protocol", "--proto", "trivial-ndisj", "--n", "3", "--k", "2"
    )
    assert code == 1
    code, _, err = run_cli(
        capsys,
        "protocol", "--proto", "trivial-search-kfold", "--n", "2", "--k", "1",
        "--compose", "halving", "--s", "1",
    )
    assert code == 1
    code, _, err = run_cli(
        capsys,
        "protocol", "--proto", "trivial-ndisj-kfold", "--n", "2", "--k", "1",
        "--compose", "permute", "--choose", "1",
    )
    assert code == 1


def test_protocol_permute_past_the_permutation_limit_exits_1(capsys):
    # 7! permutations are past the exact limit and no sample was asked for;
    # the library's refusal reaches the user as a plain exit 1.
    code, out, err = run_cli(
        capsys,
        "protocol", "--proto", "trivial-search-kfold", "--n", "7", "--k", "1",
        "--compose", "permute", "--choose", "1",
    )
    assert code == 1
    assert out == ""
    assert "permutations" in err


def test_protocol_permute_past_the_exact_cap_refuses_before_measuring(capsys, monkeypatch):
    # k*n = 12: the chooser's promise has 2^24 pairs, past the exact cap, and
    # search-choose is never sampled, so nothing is measured at all.
    import rectbound.cli

    completed = []
    real = rectbound.cli.success_probability

    def spy(*args, **kwargs):
        completed.append(real(*args, **kwargs))
        return completed[-1]

    monkeypatch.setattr(rectbound.cli, "success_probability", spy)
    code, out, err = run_cli(
        capsys,
        "protocol", "--proto", "trivial-search-kfold", "--n", "12", "--k", "1",
        "--compose", "permute", "--choose", "1", "--perm-samples", "3", "--seed", "2",
        "--samples", "50",
    )
    assert code == 1
    assert out == ""
    assert completed == []
    assert "2^24 input pairs" in err and "never sampled" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "bound", "--lp", "lovasz", "--family", "AND", "--n", "1", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["optimum"]["value"] == "1"


def test_stdout_deterministic_across_runs(capsys):
    _, first, _ = run_cli(capsys, "bound", "--lp", "smooth", "--family", "EQ", "--n", "2")
    _, second, _ = run_cli(capsys, "bound", "--lp", "smooth", "--family", "EQ", "--n", "2")
    assert first == second


def test_empty_certificate_is_trivially_feasible(capsys, tmp_path):
    # value 0: the zero dual is always feasible
    code, doc, _ = run_json(
        capsys,
        "certify", "--kind", "search",
        "--n", "2", "--k", "1", "--m", "1", "--alpha", "1", "--beta", "1/2",
        "--save", str(tmp_path / "base.json"),
    )
    assert code == 0
    base = json.loads((tmp_path / "base.json").read_text())
    base["phi"] = []
    base["psi"] = []
    emptied = tmp_path / "zero.json"
    emptied.write_text(json.dumps(base))
    code, doc, _ = run_json(capsys, "certify", "--certificate", str(emptied))
    assert code == 0
    assert doc["value"]["value"] == "0"
    assert doc["log2_value"] is None
    assert doc["verification"]["feasible"] is True


def test_certificate_file_with_malformed_strings_exits_1(capsys, tmp_path):
    # Certificate files are outside input: strings of the wrong length or
    # alphabet are refused, even where the digits would parse to masks that
    # fit the universe.
    saved = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "certify", "--kind", "search",
        "--n", "4", "--k", "1", "--m", "1", "--alpha", "1", "--beta", "1/4",
        "--save", str(saved),
    )
    assert code == 0
    base = json.loads(saved.read_text())
    assert base["universe"] == 5 and len(base["phi"][0][0]) == 5
    x, y, _ = base["phi"][0]
    for bad in ([x[:4], y[:4]], [x, "10020"]):
        doc = json.loads(saved.read_text())
        doc["phi"][0][:2] = bad
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "certify", "--certificate", str(broken))
        assert code == 1, bad
        assert out == ""
        assert "error" in err


def test_no_subcommand_exits_1(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    assert out == ""


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "scan", "--n", "8", "--seed", "1", "--wat")
    assert code == 1
    assert "error" in err


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("rectbound ")]


# SHA-256 of the stdout of each README line whose report is exact or seeded,
# and of the files the lines write.  Any change to these bytes is a change in
# what a run reports; cert.json is where the bit-string format shows.
_STDOUT_SHA256 = {
    "rectbound bound --lp lovasz --family AND --n 1":
        "30474cc5e3b96ff67064b5213d7ba7b64fd5885ff58d5a93a635176af1367476",
    "rectbound certify --kind search --n 3 --k 1 --m 1 --alpha 1 --beta 1/3 --save cert.json":
        "2c0cc1592cc1f7915c4274ae8c9582c77cb1895a71fc2868c7f90b7e04c59d64",
    "rectbound certify --certificate cert.json":
        "2c0cc1592cc1f7915c4274ae8c9582c77cb1895a71fc2868c7f90b7e04c59d64",
    "rectbound scan --n 8 --samples 1000 --seed 7 --out scan.csv":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "rectbound protocol --proto trivial-ndisj --n 3":
        "803527f6bb8a65f7c255ef548ff14e3a0a88d76f216bd0c1d319eefda4de9e61",
    "rectbound protocol --proto trivial-ndisj-kfold --n 8 --k 1 --compose halving --s 2":
        "b526f52629027a8a6173a6baee2bfa1bc8631ee0f39003a4a4a59cff63a59742",
    "rectbound protocol --proto trivial-search-kfold --n 2 --k 2 --compose permute --choose 1":
        "648b2a6f27d020553cde695999c4db1ffaec955a26071b936eebe091b3c3ff19",
    "rectbound protocol --proto trivial-ndisj-kfold --n 8 --k 2 --compose halving --s 0"
    " --samples 400 --seed 11":
        "fbf1575aac16bba6e9ed0137ee09bde4ba45d7a1660bf3499e83dcdd682ee3bc",
}
# The column-generation figures of these lines are HiGHS floats.
_UNPINNED_LINES = {
    "rectbound bound --lp smooth --family NDISJ --n 2 --solver both",
    "rectbound bound --lp search --n 2 --k 1 --sigma 1 --solver both",
}
_FILE_SHA256 = {
    "cert.json": "1d7241771b5c45eb44c70df9f79af3647081a7dd965b75f992ae3f18b8426cca",
    "scan.csv": "e258f7edc0fda851ce4675f6a4c9f59d03838f9dcce2270e226db4972a0c28ed",
}


def test_readme_cli_examples_exit_0(capsys, tmp_path, monkeypatch):
    # The block's lines run in order: a later line may read an earlier one's file.
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert sorted(lines) == sorted([*_STDOUT_SHA256, *_UNPINNED_LINES])
    for line in lines:
        code, out, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line!r} exited {code}: {err}"
        if line in _STDOUT_SHA256:
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == _STDOUT_SHA256[line], f"{line!r} stdout changed"
    for name, expected in _FILE_SHA256.items():
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == expected, f"{name} changed"
