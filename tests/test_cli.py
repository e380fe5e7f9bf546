import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from entpower import cli, montecarlo
from entpower.cli import main, table_from_json, table_to_csv, table_to_json
from entpower.closedform import CaseTag, ep1, ep_inf, op_ent_cue
from entpower.ensembles import BipartiteDims, EnsembleTag, PhiloxStreams, sample_block
from entpower.montecarlo import (
    ExperimentConfig,
    ExperimentKind,
    ResultRow,
    ResultTable,
    StateMode,
    run_experiment,
)

EP_SMALL = ["ep-curve", "--da", "2", "--db", "3", "--nmax", "4", "--samples", "120", "--seed", "5"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert main(["ep-curve"]) == 2  # missing --da/--db
    assert main(["ep-curve", "--bogus", "1", "--da", "2", "--db", "2"]) == 2
    assert main(["opent-curve", "--da", "2", "--db", "3", "--state", "fixed"]) == 2
    assert main(["verify", "--da", "2", "--db", "3"]) == 2  # no --kind
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [],
    ["ep-curve", "--da", "x"],
    ["ep-curve", "--bogus", "1"],
    ["fit", "--format", "csv"],
    ["verify", "--kind", "bogus"],
    ["ep-curve", "--da", "2", "--db", "3", "stray\nargument"],
], ids=["no-command", "bad-int", "unknown-flag", "foreign-flag", "bad-choice", "line-break"])
def test_parser_errors_are_one_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: entpower") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    EP_SMALL[:-1] + [str(2**64)],
    EP_SMALL[:-1] + ["-1"],
    ["verify", "--kind", "ep-curve", "--da", "2", "--db", "3", "--gate-sigma", "nan"],
    ["verify", "--kind", "ep-curve", "--da", "2", "--db", "3", "--gate-sigma", "inf"],
    ["verify", "--kind", "ep-curve", "--da", "2", "--db", "3", "--gate-sigma", "0"],
    ["verify", "--kind", "ep-curve", "--da", "2", "--db", "3", "--gate-sigma", "-5"],
], ids=["seed-2^64", "seed-negative", "gate-nan", "gate-inf", "gate-zero", "gate-negative"])
def test_out_of_range_numbers_exit_two_before_sampling(capsys, monkeypatch, argv):
    def no_sampling(cfg, parallelism=1):
        raise AssertionError("experiment ran despite invalid input")

    monkeypatch.setattr(cli, "run_experiment", no_sampling)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_ep_curve_csv_contract(capsys):
    code, out, _ = run_cli(capsys, EP_SMALL)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mean,stderr,count"
    assert len(lines) == 5
    assert "\r" not in out
    n, mean, stderr, count = lines[1].split(",")
    assert (n, count) == ("1", "120")
    assert float(mean) > 0 and float(stderr) > 0


def test_repeated_in_process_calls_share_one_parser(capsys):
    # the parser is built once per process; reusing it must change no output
    first = run_cli(capsys, EP_SMALL)
    second = run_cli(capsys, EP_SMALL)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert cli.build_parser() is cli.build_parser()
    code, out, err = run_cli(capsys, ["ep-curve", "--da", "2", "--db", "x"])
    assert code == 2 and out == "" and "--db" in err
    assert run_cli(capsys, EP_SMALL)[1] == first[1]


def test_csv_floats_roundtrip(capsys):
    cfg = ExperimentConfig(ExperimentKind.EP_CURVE, EnsembleTag.CUE, StateMode.FIXED_PRODUCT,
                           2, 3, 4, 120, 5)
    table = run_experiment(cfg)
    code, out, _ = run_cli(capsys, EP_SMALL)
    assert code == 0
    for row, line in zip(table.rows, out.splitlines()[1:]):
        _, mean, stderr, _ = line.split(",")
        assert float(mean) == row.mean
        assert float(stderr) == row.stderr


def test_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(EP_SMALL + ["--out", str(a)]) == 0
    assert main(EP_SMALL + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_unwritable_out_path(capsys):
    code, _, err = run_cli(capsys, EP_SMALL + ["--out", "/nonexistent-dir/x.csv"])
    assert code == 3
    assert "i/o error" in err


def test_json_output_round_trips(capsys):
    code, out, _ = run_cli(capsys, EP_SMALL + ["--format", "json"])
    assert code == 0
    parsed = table_from_json(out)
    assert table_from_json(table_to_json(parsed)) == parsed
    assert parsed.metadata["config"]["samples"] == 120
    assert [r.n for r in parsed.rows] == [1, 2, 3, 4]


def test_emit_parse_identity_on_table_object():
    cfg = ExperimentConfig(ExperimentKind.ASYMPTOTIC, EnsembleTag.COE, StateMode.FIXED_PRODUCT,
                           2, 2, 1, 40, 9)
    table = run_experiment(cfg)
    assert table_from_json(table_to_json(table)) == table
    csv = table_to_csv(table)
    assert csv.splitlines()[1].startswith("-1,")


def test_config_file_merging(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"da": 2, "db": 3, "nmax": 4, "samples": 120, "seed": 5}))
    code, from_config, _ = run_cli(capsys, ["ep-curve", "--config", str(path)])
    assert code == 0
    code, from_flags, _ = run_cli(capsys, EP_SMALL)
    assert from_config == from_flags
    # explicit flags override config values
    code, overridden, _ = run_cli(capsys, ["ep-curve", "--config", str(path), "--samples", "240"])
    assert code == 0
    assert overridden.splitlines()[1].endswith(",240")


def test_config_file_unknown_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"da": 2, "db": 3, "bogus": 1}))
    code, _, err = run_cli(capsys, ["ep-curve", "--config", str(path)])
    assert code == 2
    assert "bogus" in err


def _no_sampling(cfg, parallelism=1):
    raise AssertionError("experiment ran despite invalid input")


@pytest.mark.parametrize("command,config", [
    ("ep-curve", {"seed": 1.5}),
    ("ep-curve", {"seed": True}),
    ("ep-curve", {"da": "2"}),
    ("ep-curve", {"samples": 2.5}),
    ("ep-curve", {"parallelism": None}),
    ("ep-curve", {"ensemble": "gue"}),
    ("ep-curve", {"state": 1}),
    ("ep-curve", {"out": 7}),
    ("form-factor", {"moment": 3}),
    ("verify", {"kind": "ep-curve", "gate_sigma": "5"}),
    ("verify", {"kind": "ep-curve", "gate_sigma": False}),
    ("verify", {"kind": "ep-curve", "gate_sigma": 2**1100}),
], ids=["seed-float", "seed-bool", "da-string", "samples-float", "parallelism-null",
        "ensemble-choice", "state-int", "out-int", "moment-choice", "gate-string", "gate-bool",
        "gate-beyond-float"])
def test_config_values_are_type_checked(capsys, monkeypatch, tmp_path, command, config):
    monkeypatch.setattr(cli, "run_experiment", _no_sampling)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"da": 2, "db": 3, **config}))
    code, out, err = run_cli(capsys, [command, "--config", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: config key ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,config", [
    (["verify", "--kind", "ep-curve", "--out", "v.txt"], None),
    (["verify", "--kind", "ep-curve", "--format", "json"], None),
    (["fit", "--out", "v.txt"], None),
    (["fit", "--format", "json"], None),
    (["verify"], {"kind": "ep-curve", "out": "v.txt"}),
    (["fit"], {"format": "json"}),
    (["asymptotic", "--time-average-n", "5"], None),
    (["verify", "--kind", "asymptotic", "--time-average-n", "5"], None),
    (["asymptotic"], {"time_average_n": 5}),
], ids=["verify-out", "verify-format", "fit-out", "fit-format", "verify-config-out",
        "fit-config-format", "asymptotic-time-average-n", "verify-time-average-n",
        "asymptotic-config-time-average-n"])
def test_verify_and_fit_reject_output_flags(capsys, monkeypatch, tmp_path, argv, config):
    # verify and fit print their gate lines to stdout and never had an
    # output file; no subcommand takes --time-average-n since asymptotes
    # no longer fall back to a brute-force time average
    monkeypatch.setattr(cli, "run_experiment", _no_sampling)
    monkeypatch.chdir(tmp_path)
    argv = argv + ["--da", "2", "--db", "2"]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    if config is not None:
        assert err.startswith("error: config key ") and "is not a flag of subcommand" in err
    assert not (tmp_path / "v.txt").exists()


@pytest.mark.parametrize("argv,config", [
    (["--kind", "asymptotic", "--nmax", "99"], None),
    (["--kind", "opent-curve", "--state", "random-real", "--moment", "4"], None),
    (["--kind", "form-factor", "--state", "fixed"], None),
    (["--kind", "ep-curve", "--moment", "2"], None),
    ([], {"kind": "asymptotic", "nmax": 99}),
    (["--kind", "opent-curve"], {"state": "random-real"}),
], ids=["asymptotic-nmax", "opent-state-moment", "form-factor-state", "ep-curve-moment",
        "config-asymptotic-nmax", "config-opent-state"])
def test_verify_rejects_options_its_kind_lacks(capsys, monkeypatch, tmp_path, argv, config):
    # verify parses the options of every kind; a run takes only its own
    monkeypatch.setattr(cli, "run_experiment", _no_sampling)
    argv = ["verify"] + argv + ["--da", "2", "--db", "2"]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: verify --kind ") and len(err.splitlines()) == 1


def test_verify_form_factor_takes_moment(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--kind", "form-factor", "--moment", "4",
                                    "--da", "2", "--db", "2", "--nmax", "2", "--samples", "400"])
    assert code == 0
    assert "fourth_moment" in out


@pytest.mark.parametrize("samples,parallelism,bad", [(120, 1, 37), (1100, 2, 530)],
                         ids=["serial", "threads"])
def test_failed_decomposition_exits_four_naming_the_sample(capsys, monkeypatch, samples,
                                                           parallelism, bad):
    # sample `bad` fails wherever it sits in its block and chunk
    failing_u = sample_block(EnsembleTag.CUE, BipartiteDims(2, 3), None, PhiloxStreams(5),
                             bad, 1)[0][0]
    real = montecarlo.decompose_block

    def decompose(u, dims, symmetric):
        if any(np.array_equal(x, failing_u) for x in u):
            raise np.linalg.LinAlgError("spectral reconstruction residual 1.0e-03 > 1e-10")
        return real(u, dims, symmetric=symmetric)

    monkeypatch.setattr(montecarlo, "decompose_block", decompose)
    argv = EP_SMALL[:-3] + [str(samples), "--seed", "5", "--parallelism", str(parallelism)]
    code, out, err = run_cli(capsys, argv)
    assert code == 4
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"sample {bad} of master seed 5 " in err


def _refuse_memory(*args):
    raise MemoryError()


def test_dimensions_too_large_for_memory_exit_two(capsys, monkeypatch):
    # numpy refuses such a draw at once; the patch makes that independent of
    # the host's overcommit setting
    monkeypatch.setattr(montecarlo, "sample_block", _refuse_memory)
    code, out, err = run_cli(capsys, ["ep-curve", "--da", "1000", "--db", "1000",
                                      "--samples", "2", "--nmax", "1"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: d = 1000000 ") and len(err.splitlines()) == 1


def _fail_decomposition(u, dims, symmetric):
    raise np.linalg.LinAlgError("spectral reconstruction residual 1.0e-03 > 1e-10")


@pytest.mark.parametrize("seam,failure,code", [
    ("sample_block", _refuse_memory, 2),
    ("decompose_block", _fail_decomposition, 4),
], ids=["memory", "decomposition"])
def test_failed_run_leaves_no_out_file(capsys, monkeypatch, tmp_path, seam, failure, code):
    monkeypatch.setattr(montecarlo, seam, failure)
    out = tmp_path / "m.csv"
    got, stdout, err = run_cli(capsys, EP_SMALL + ["--out", str(out)])
    assert got == code
    assert stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_readme_invocations_parse():
    # the README's command lines document the CLI; each must still parse
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()
             if line.strip().startswith("entpower ")]
    assert len(lines) >= 10
    parser, _ = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_config_float_flag_takes_a_json_integer(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kind": "ep-curve", "da": 2, "db": 3, "nmax": 2,
                                "samples": 200, "gate_sigma": 5}))
    code, out, _ = run_cli(capsys, ["verify", "--config", str(path)])
    assert code == 0
    assert "gate=5" in out


def test_unwritable_out_exits_three_before_sampling(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_experiment", _no_sampling)
    code, out, err = run_cli(capsys, EP_SMALL + ["--out", str(tmp_path / "missing" / "a.csv")])
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error: ")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_invalid_parallelism_exits_two_before_opening_out(capsys, monkeypatch, tmp_path, value):
    monkeypatch.setattr(cli, "run_experiment", _no_sampling)
    out_path = tmp_path / "f.csv"
    code, out, err = run_cli(capsys, EP_SMALL + ["--parallelism", value, "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: parallelism must be >= 1") and len(err.splitlines()) == 1
    assert not out_path.exists()


def test_missing_config_file_is_io_error(capsys):
    code, _, _ = run_cli(capsys, ["ep-curve", "--config", "/no/such/file.json"])
    assert code == 3


def test_seed_env_fallback(capsys, monkeypatch):
    argv = ["ep-curve", "--da", "2", "--db", "3", "--nmax", "3", "--samples", "80"]
    monkeypatch.setenv("RMT_SEED", "5")
    _, via_env, _ = run_cli(capsys, argv)
    monkeypatch.delenv("RMT_SEED")
    _, via_flag, _ = run_cli(capsys, argv + ["--seed", "5"])
    assert via_env == via_flag
    _, via_default, _ = run_cli(capsys, argv)
    _, via_zero, _ = run_cli(capsys, argv + ["--seed", "0"])
    assert via_default == via_zero
    monkeypatch.setenv("RMT_SEED", "not-a-number")
    code, _, _ = run_cli(capsys, argv)
    assert code == 2


def test_form_factor_moments(capsys):
    argv = ["form-factor", "--da", "2", "--db", "2", "--nmax", "2", "--samples", "400",
            "--seed", "3"]
    _, second, _ = run_cli(capsys, argv)
    _, fourth, _ = run_cli(capsys, argv + ["--moment", "4"])
    m2 = float(second.splitlines()[1].split(",")[1])
    m4 = float(fourth.splitlines()[1].split(",")[1])
    assert m4 > m2  # |t|^4 dominates |t|^2 for d = 4
    assert main(argv + ["--moment", "3"]) == 2
    capsys.readouterr()


def test_table_matches_exact_rationals(capsys):
    code, out, _ = run_cli(capsys, ["table", "--da", "4", "--db", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,numerator,denominator,value"
    got = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    expected = {
        "ep1_a": ep1(CaseTag.A_CUE_COMPLEX, 4, 5),
        "ep1_bc": ep1(CaseTag.B_COE_COMPLEX, 4, 5),
        "opent_cue": op_ent_cue(4, 5),
        "epinf_a": ep_inf(CaseTag.A_CUE_COMPLEX, 4, 5),
        "epinf_b": ep_inf(CaseTag.B_COE_COMPLEX, 4, 5),
        "epinf_c": ep_inf(CaseTag.C_COE_REAL, 4, 5),
    }
    assert set(got) == set(expected)
    for name, frac in expected.items():
        num, den, value = got[name]
        assert Fraction(int(num), int(den)) == frac
        assert value == format(float(frac), ".17g")


@pytest.mark.parametrize("da,db", [(2, 2), (2, 100)])
def test_table_other_dims(capsys, da, db):
    code, out, _ = run_cli(capsys, ["table", "--da", str(da), "--db", str(db)])
    assert code == 0
    for line in out.splitlines()[1:]:
        name, num, den, value = line.split(",")
        assert value == format(int(num) / int(den), ".17g")


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, ["table", "--da", "4", "--db", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    v = payload["values"]["ep1_a"]
    assert Fraction(v["numerator"], v["denominator"]) == Fraction(4, 7)


def test_verify_cue_ep_curve_passes(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--kind", "ep-curve", "--da", "2", "--db", "3",
        "--nmax", "12", "--samples", "3000", "--seed", "21"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert any("ep1(a)" in line for line in lines)
    assert any("epinf(a)" in line for line in lines)


def test_verify_gate_failure_exits_one(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--kind", "ep-curve", "--da", "2", "--db", "3",
        "--nmax", "2", "--samples", "400", "--seed", "21", "--gate-sigma", "0.001"])
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("argv", [
    ["--kind", "opent-curve", "--da", "1", "--db", "3", "--nmax", "3", "--samples", "20000"],
    ["--kind", "form-factor", "--da", "1", "--db", "1", "--nmax", "2", "--samples", "50"],
], ids=["opent-da1", "form-factor-d1"])
def test_verify_passes_rows_exact_up_to_roundoff(capsys, argv):
    # rows whose every sample equals the target up to roundoff have a
    # stderr near 0, so |z| can be large (+23.97, -7.00) on a 2e-16 deviation
    code, out, err = run_cli(capsys, ["verify"] + argv)
    assert code == 0, out + err
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])


@pytest.mark.parametrize("offset,code", [(1e-13, 0), (1e-6, 1)], ids=["within-floor", "beyond"])
def test_verify_zero_stderr_row_is_gated_not_a_usage_error(capsys, monkeypatch, offset, code):
    def exact_rows(cfg, parallelism=1):
        return ResultTable([ResultRow(1, 1.0 + offset, 0.0, cfg.samples)], {})

    monkeypatch.setattr(cli, "run_experiment", exact_rows)
    got, out, _ = run_cli(capsys, ["verify", "--kind", "form-factor", "--da", "1", "--db", "1",
                                   "--nmax", "1", "--samples", "10"])
    assert got == code
    assert out.startswith("PASS" if code == 0 else "FAIL")


def test_verify_unsupported_targets(capsys):
    code, _, err = run_cli(capsys, [
        "verify", "--kind", "opent-curve", "--da", "2", "--db", "3",
        "--ensemble", "coe", "--samples", "100"])
    assert code == 2
    assert "no closed-form target" in err
    code, _, err = run_cli(capsys, [
        "verify", "--kind", "form-factor", "--da", "2", "--db", "3",
        "--ensemble", "coe", "--samples", "100"])
    assert code == 2


def test_verify_coe_asymptotic_passes(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "--kind", "asymptotic", "--da", "2", "--db", "3",
        "--ensemble", "coe", "--samples", "2000", "--seed", "33"])
    assert code == 0
    assert "epinf(c)" in out


def test_fit_subcommand(capsys):
    code, out, _ = run_cli(capsys, [
        "fit", "--da", "2", "--db", "2", "--nmax", "8", "--samples", "20000", "--seed", "13"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("c1=")
    assert sum(line.startswith("PASS") for line in lines) == 2
    assert main(["fit", "--da", "2", "--db", "2", "--ensemble", "coe"]) == 2
    capsys.readouterr()
