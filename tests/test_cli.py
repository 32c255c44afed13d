import argparse
import subprocess
import sys

import numpy as np
import pytest

import gscheme as gs
from gscheme import cli
from gscheme.cli import build_parser, emit_csv, main, parse_args, parse_csv


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "gscheme.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsing:
    def test_bounds_config(self):
        cfg = parse_args(
            "bounds --cphi 1 --beta 1 --T 1 --family builtin:pm-sigma "
            "--sigma-lo 0.1 --sigma-hi 0.3".split()
        )
        assert cfg.subcommand == "bounds"
        assert cfg.cphi == 1.0
        assert cfg.sigma_lo == 0.1

    def test_clt_n_list(self):
        cfg = parse_args(
            "clt --n-list 2,4,8,16 --phi relu --family builtin:pm-sigma "
            "--sigma-lo 0.1 --sigma-hi 0.3".split()
        )
        assert cfg.subcommand == "clt"
        assert cfg.n_list == "2,4,8,16"

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["bsb"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["bounds", "--nonsense", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["frobnicate"])
        assert exc.value.code == 2


class TestCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, header=("resolution", "error", "bound"))
        assert path.read_text() == "resolution,error,bound\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([(0.5, 0.1, 0.2)], path)
        header, rows = parse_csv(path)
        assert header == ["resolution", "error", "bound"]
        assert rows == [(0.5, 0.1, 0.2)]

    def test_float_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        values = [tuple(rng.standard_normal(3) * 10.0**rng.integers(-8, 8)) for _ in range(50)]
        path = tmp_path / "floats.csv"
        emit_csv(values, path)
        _header, rows = parse_csv(path)
        for want, got in zip(values, rows):
            assert all(a == b for a, b in zip(want, got))

    def test_bounds_report_csv(self, tmp_path):
        mom = gs.validate(gs.pm_sigma_family([0.1, 0.3]))
        report = gs.compute_constants(mom, 1.0, 1.0, 1.0, c_rho=145.0)
        path = tmp_path / "bounds.csv"
        emit_csv(report, path)
        text = path.read_text().splitlines()
        assert text[0] == "key,value"
        assert any(line.startswith("c_explicit,") for line in text)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [(0.5, 0.125, 0.25), (0.25, 0.0625, 0.125)]
        emit_csv(rows, a, sidecar="gscheme test --x=1")
        emit_csv(rows, b, sidecar="gscheme test --x=1")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("# gscheme test --x=1\n")


class TestSubcommands:
    def test_bounds_stdout(self):
        code, out, _ = run_cli(
            "bounds", "--cphi", "1", "--beta", "1", "--T", "1",
            "--family", "builtin:pm-sigma", "--sigma-lo", "0.1", "--sigma-hi", "0.3",
        )
        assert code == 0
        assert "c_explicit" in out and "k0" in out

    def test_gheat_value_and_dump(self, tmp_path):
        dump = tmp_path / "steps.csv"
        code, out, _ = run_cli(
            "gheat", "--family", "builtin:pm-sigma", "--sigma-lo", "0.2", "--sigma-hi", "0.2",
            "--phi", "abs", "--delta", "0.25", "--T", "1", "--grid-n", "801",
            "--dump-steps", str(dump),
        )
        assert code == 0
        assert "u(1," in out.replace(" ", "")
        lines = dump.read_text().splitlines()
        assert lines[0] == "t,x_1,value"
        assert len(lines) == 1 + 5 * 801

    def test_bsb_price(self):
        code, out, _ = run_cli(
            "bsb", "--r", "0.05", "--sigma-lo", "0.2", "--sigma-hi", "0.2",
            "--T", "1", "--K", "1", "--payoff", "put", "--s0", "1",
            "--delta", "0.001", "--nsigma", "1",
        )
        assert code == 0
        price = float(out.split("=")[1])
        assert abs(price - 0.0557) < 5e-3

    def test_bsb_usage_error(self):
        code, _out, err = run_cli("bsb")
        assert code == 2
        assert "--r" in err or "required" in err

    def test_lln_subcommand(self, tmp_path):
        out_path = tmp_path / "lln.csv"
        code, out, _ = run_cli(
            "lln", "--family", "builtin:lln-box", "--theta-lo", "0", "--theta-hi", "0.1",
            "--n-list", "4,8,16,32", "--out", str(out_path),
        )
        assert code == 0
        assert "PASS" in out
        header, rows = parse_csv(out_path)
        assert header == ["resolution", "error", "bound"]
        assert len(rows) == 4

    def test_clt_subcommand_with_coarse_reference(self, tmp_path):
        out_path = tmp_path / "clt.csv"
        code, out, _ = run_cli(
            "clt", "--family", "builtin:pm-sigma", "--sigma-lo", "0.1", "--sigma-hi", "0.3",
            "--phi", "capped-relu", "--n-list", "2,4,8", "--delta-ref", "0.00390625",
            "--out", str(out_path),
        )
        assert code == 0
        assert "PASS" in out and "reference" in out
        header, rows = parse_csv(out_path)
        assert header == ["resolution", "error", "bound"]
        assert len(rows) == 3

    def test_bsb_dump_steps(self, tmp_path):
        dump = tmp_path / "bsb-steps.csv"
        code, _out, _ = run_cli(
            "bsb", "--r", "0.05", "--sigma-lo", "0.1", "--sigma-hi", "0.3",
            "--T", "1", "--K", "1", "--payoff", "put", "--s0", "1",
            "--delta", "0.25", "--nsigma", "3", "--dump-steps", str(dump),
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "t,x_1,value"
        assert len(lines) > 5
        # the same rows, built from the levels the pricer returns
        spec = gs.BsbSpec(0.05, 0.1, 0.3, 1.0, gs.make_payoff("put", 1.0), n_sigma=3,
                          delta=0.25)
        _value, levels = gs.bsb_price(spec, 1.0, backend="grid", return_solution=True)
        xs = levels[0].config.axes[0]
        expected = ["t,x_1,value"] + [
            f"{n * 0.25:.17g},{x:.17g},{v:.17g}"
            for n, level in enumerate(levels) for x, v in zip(xs, level.values)
        ]
        assert lines == expected

    def test_consistency_subcommand(self):
        code, out, _ = run_cli(
            "consistency", "--family", "builtin:pm-sigma", "--sigma-lo", "0.1",
            "--sigma-hi", "0.3", "--psi", "sin",
        )
        assert code == 0
        assert "PASS" in out

    def test_oracle_bs(self):
        code, out, _ = run_cli("oracle", "--which", "bs")
        assert code == 0
        assert "0.0557" in out

    def test_family_file_loading(self, tmp_path):
        fam_path = tmp_path / "family.txt"
        gs.save_measures(gs.pm_sigma_family([0.1, 0.3]), fam_path)
        code, out, _ = run_cli(
            "bounds", "--cphi", "1", "--beta", "1", "--T", "1", "--family", str(fam_path)
        )
        assert code == 0
        assert "k0" in out

    def test_bad_family_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a family\n")
        code, _out, err = run_cli(
            "bounds", "--cphi", "1", "--beta", "1", "--T", "1", "--family", str(bad)
        )
        assert code == 1
        assert "error" in err.lower()


@pytest.mark.parametrize(
    "text, where",
    [
        ("d=1 measures=1\n0 abc 0 1\n", "line 2"),
        ("d=1 measures=1 junk\n0 0.1 0 0.5\n0 -0.1 0 0.5\n", "line 1"),
    ],
)
def test_malformed_family_file_exits_1_in_process(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    rc = main(["bounds", "--cphi", "1", "--beta", "1", "--T", "1", "--family", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert where in err


def test_main_returns_int_in_process(capsys):
    rc = main(["oracle", "--which", "normal", "--phi", "relu", "--sigma", "1.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.39894" in out


def test_failed_check_exits_3(tmp_path):
    # target box far from the family's means: the limit is nonzero, the decay
    # bound breaks, and the lln check must report failure via exit code 3
    import warnings

    fam_path = tmp_path / "lln-family.txt"
    gs.save_measures(gs.lln_box_family(0.0, 0.1), fam_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main([
            "lln", "--family", str(fam_path), "--theta-lo", "0", "--theta-hi", "0.1",
            "--n-list", "4,8,16,32",
        ])
        assert rc == 0
        rc = main([
            "lln", "--family", str(fam_path), "--theta-lo", "0.4", "--theta-hi", "0.5",
            "--n-list", "4,8,16,32",
        ])
        assert rc == 3



_CLT = ["clt", "--family", "builtin:pm-sigma", "--sigma-lo", "0.1", "--sigma-hi", "0.3",
        "--phi", "capped-relu", "--n-list", "2,4,8"]
_BSB = ["bsb", "--sigma-lo", "0.1", "--sigma-hi", "0.3", "--K", "1", "--payoff", "put",
        "--s0", "1", "--delta", "0.01"]  # argparse keeps the last of a repeated option
_PM = ["--family", "builtin:pm-sigma", "--sigma-lo", "0.1", "--sigma-hi", "0.3"]


@pytest.mark.parametrize("argv, names", [
    (_CLT + ["--delta-ref", "0"], "delta_ref"),
    (_CLT + ["--delta-ref", "nan"], "delta_ref"),
    (_CLT + ["--delta-ref=-1"], "delta_ref"),
    (_BSB + ["--r", "0.05", "--T", "nan"], "horizon"),
    (_BSB + ["--r", "nan", "--T", "1"], "r must be finite"),
    (_BSB + ["--r", "0.05", "--T", "1", "--s0", "nan"], "s0"),
    (_BSB + ["--r", "0.05", "--T", "1", "--K", "nan"], "strike"),
    (["gheat", "--family", "builtin:pm-sigma", "--sigma-lo", "0.2", "--sigma-hi", "0.2",
      "--phi", "abs", "--delta", "0.25", "--T", "nan"], "horizon"),
    (["clt", "--phi", "relu", "--n-list", ","] + _PM, "--n-list"),
    (["lln", "--family", "builtin:lln-box", "--n-list", "4,x"], "--n-list"),
    (["consistency", "--delta-list", "abc"] + _PM, "--delta-list"),
    (["consistency", "--delta-list", ","] + _PM, "--delta-list"),
    (["consistency", "--delta-list", "0.25,nan"] + _PM, "--delta-list"),
    (["oracle", "--which", "bs", "--K", "nan"], "finite"),
    (["oracle", "--which", "bs", "--r", "inf"], "finite"),
    (["oracle", "--which", "normal", "--sigma", "nan"], "sigma"),
    (["oracle", "--which", "maximal", "--theta-lo", "nan"], "box"),
    (["bounds", "--cphi", "nan", "--beta", "1", "--T", "1"] + _PM, "c_phi"),
    (["bounds", "--cphi", "1", "--beta", "1", "--T", "nan"] + _PM, "T must"),
    (["bounds", "--cphi", "1", "--beta", "1", "--T", "inf"] + _PM, "T must"),
], ids=["clt-delta-ref-0", "clt-delta-ref-nan", "clt-delta-ref-neg", "bsb-T-nan",
        "bsb-r-nan", "bsb-s0-nan", "bsb-K-nan", "gheat-T-nan", "clt-empty-n-list",
        "lln-bad-n-list", "consistency-bad-delta", "consistency-empty-delta",
        "consistency-nan-delta", "oracle-bs-K-nan", "oracle-bs-r-inf", "oracle-normal-sigma-nan",
        "oracle-maximal-theta-nan", "bounds-cphi-nan", "bounds-T-nan", "bounds-T-inf"])
def test_out_of_range_numbers_exit_1(capsys, argv, names):
    rc = main(argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert names in err


_DEGENERATE_BSB = ["bsb", "--r", "0.05", "--sigma-lo", "0.2", "--sigma-hi", "0.2", "--T", "1",
                   "--K", "1", "--payoff", "put", "--s0", "1", "--delta", "0.25", "--nsigma", "1"]


@pytest.mark.parametrize("backend", ["exact", "auto"])
def test_bsb_dump_steps_needs_the_grid_backend(tmp_path, capsys, backend):
    dump = tmp_path / "steps.csv"
    rc = main(_DEGENERATE_BSB + ["--backend", backend, "--dump-steps", str(dump)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --dump-steps")
    assert not dump.exists()
    # the grid backend dumps the levels it priced on
    assert main(_DEGENERATE_BSB + ["--backend", "grid", "--dump-steps", str(dump)]) == 0
    grid_price = capsys.readouterr().out
    assert main(_DEGENERATE_BSB + ["--backend", "grid"]) == 0
    assert capsys.readouterr().out == grid_price
    assert dump.read_text().startswith("t,x_1,value\n")


def _choices(subcommand, flag):
    """The choices argparse offers for one option of one subcommand."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[subcommand]._actions if flag in a.option_strings).choices


@pytest.mark.parametrize("psi", _choices("consistency", "--psi"))
@pytest.mark.parametrize("variant", _choices("consistency", "--variant"))
def test_every_consistency_choice_runs(capsys, variant, psi):
    rc = main(["consistency", "--variant", variant, "--psi", psi] + _PM)
    assert rc in (0, 3), capsys.readouterr().err
    assert f"consistency[{variant}]:" in capsys.readouterr().out


_CLT_COARSE = _CLT + ["--delta-ref", "0.00390625"]


def test_clt_takes_cphi_and_beta_from_phi(tmp_path, monkeypatch):
    out = tmp_path / "clt.csv"
    assert main(_CLT_COARSE + ["--out", str(out)]) == 0
    assert "--beta=1.0 --cphi=1.0" in out.read_text().splitlines()[0]
    # a phi declaring other values gets a bound built from them
    holder = gs.InitialData("holder", gs.capped_relu().fn, 0.0, c_phi=2.0, beta=0.5)
    monkeypatch.setattr(cli, "builtin_phi", lambda name: holder)
    assert main(_CLT_COARSE + ["--out", str(out)]) in (0, 3)
    assert "--beta=0.5 --cphi=2.0" in out.read_text().splitlines()[0]
    c_explicit = gs.compute_constants(
        gs.validate(gs.pm_sigma_family([0.1, 0.3])), 2.0, 0.5, 1.0).c_explicit
    _header, rows = parse_csv(out)
    for n, _error, bound in rows:
        assert bound == c_explicit * n ** (-0.5 / 6.0)


def test_clt_needs_cphi_when_phi_declares_none(capsys):
    square = ["clt", "--phi", "square", "--n-list", "2,4,8", "--delta-ref", "0.00390625"] + _PM
    assert main(square) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--cphi" in err
    assert main(square + ["--cphi", "1"]) in (0, 3)


def test_clt_warns_when_the_reference_does_not_contract(tmp_path, capsys, monkeypatch):
    def reference(warning):
        return gs.ReferenceSolution(0.1196, "fine_grid_gheat", 2.5e-4, {"fitted_order": -1.4},
                                    warning=warning)

    runs = []
    for warning in (False, True):
        monkeypatch.setattr(cli, "fine_grid_reference", lambda *a, **k: reference(warning))
        out = tmp_path / f"clt-{warning}.csv"
        assert main(_CLT + ["--out", str(out)]) == 0
        runs.append((capsys.readouterr(), out.read_bytes()))
    (quiet, quiet_csv), (loud, loud_csv) = runs
    assert quiet.err == ""
    assert loud.out == quiet.out and loud_csv == quiet_csv
    assert loud.err.startswith("warning:") and "2.50e-04" in loud.err and "-1.4" in loud.err
