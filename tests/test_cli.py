"""End-to-end runs of the command line, in process via main()."""

import json
import shlex
from pathlib import Path

import pytest

from rectbound.cli import main


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

    def shifted(lp):
        res = real(lp)
        return dataclasses.replace(res, optimum=res.optimum + 1e-6)

    monkeypatch.setattr(rectbound.cli, "solve_constraint_generation", shifted)
    code, doc, _ = run_json(
        capsys, "bound", "--lp", "search", "--n", "2", "--k", "1", "--solver", "both"
    )
    assert code == 2
    assert doc["result"]["exact"]["status"] == doc["result"]["cg"]["status"] == "optimal"
    assert doc["result"]["agreement_gap"]["value"] == pytest.approx(1e-6, rel=1e-6)


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


def test_protocol_trivial_ndisj(capsys):
    code, doc, _ = run_json(capsys, "protocol", "--proto", "trivial-ndisj", "--n", "3")
    assert code == 0
    assert doc["worst_cost"] == 4
    success = doc["success"]
    assert success["mode"] == "exact-rational"
    assert success["worst"]["value"] == "1"
    assert success["inputs_checked"] == 64
    assert doc["bits"]["histogram"] == {"4": 64}
    assert doc["bits"]["uniform"] is True


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


def test_protocol_sampled_bits_probe_is_the_first_512_draws(capsys, monkeypatch):
    import rectbound.cli
    from rectbound.protocols import TaskSpec, measured_inputs

    probed = []
    profile = rectbound.cli.cost_profile

    def spy(proto, inputs):
        probed.append(list(inputs))
        return profile(proto, probed[-1])

    monkeypatch.setattr(rectbound.cli, "cost_profile", spy)
    code, doc, _ = run_json(
        capsys,
        "protocol", "--proto", "trivial-ndisj-kfold",
        "--n", "8", "--k", "2", "--samples", "600", "--seed", "11",
    )
    assert code == 0
    assert doc["success"]["inputs_checked"] == 600
    assert doc["success"]["worst_input"] == [59294, 61033]  # the first draw
    assert doc["bits"]["histogram"] == {"18": 512}
    sample, sampled = measured_inputs(TaskSpec("ndisj-kfold", 8, 2), 600, 11)
    assert sampled and probed == [sample[:512]]


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


def test_readme_cli_examples_exit_0(capsys, tmp_path, monkeypatch):
    # The block's lines run in order: a later line may read an earlier one's file.
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert lines
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line!r} exited {code}: {err}"
