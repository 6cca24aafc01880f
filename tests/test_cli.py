"""Command-line surface: exit codes, report content, output determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pgee.cli
from pgee.cli import main
from pgee import EstimatorId, Scenario, generate_dataset, parse_config, run_block, write_csv


@pytest.fixture
def balanced_csv(tmp_path):
    scen = Scenario(
        n_clusters=10,
        n_pattern=(4,),
        event_rate=0.3,
        rho=0.2,
        true_structure="exchangeable",
        working_structure="exchangeable",
        seed=5,
    )
    ds = generate_dataset(scen, np.random.default_rng(5))
    path = tmp_path / "balanced.csv"
    write_csv(ds, path)
    return path


@pytest.fixture
def unbalanced_csv(tmp_path):
    scen = Scenario(
        n_clusters=10,
        n_pattern=(2, 6),
        event_rate=0.3,
        rho=0.2,
        true_structure="exchangeable",
        working_structure="exchangeable",
        seed=6,
    )
    ds = generate_dataset(scen, np.random.default_rng(6))
    path = tmp_path / "unbalanced.csv"
    write_csv(ds, path)
    return path


@pytest.fixture
def separated_csv(tmp_path):
    path = tmp_path / "separated.csv"
    lines = ["cluster,y,x1"]
    for i in range(10):
        for _ in range(2):
            lines.append(f"c{i},0,{float(i % 2)}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def owned_csv(tmp_path):
    # only c0 has x1 = 1: the other clusters carry no information on x1
    path = tmp_path / "owned.csv"
    path.write_text("cluster,y,x1\n" + "".join(
        f"c{i},{int((i + 2 * j) % 3 == 0)},{float(i == 0)}\n" for i in range(10) for j in range(2)))
    return path


def _assert_one_error_line(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert len(err.strip().splitlines()) == 1


def _assert_only_error_line(capsys, message):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fit", "--bogus", "x.csv"], "unrecognized arguments: --bogus"),
            (["simulate", "--reps", "abc"], "invalid int value: 'abc'"),
            ([], "required: command"),
            (["fit"], "required: data"),
            (["simulate", "--config", "x.cfg", "--full"], "unrecognized arguments: --full"),
        ],
    )
    def test_exit_1_with_one_error_line(self, capsys, argv, message):
        # usage errors are input errors: exit 1, not the non-convergence 2
        assert main(argv) == 1
        _assert_only_error_line(capsys, message)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: pgee" in capsys.readouterr().out


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, balanced_csv, tmp_path, capsys):
        # main parses with one parser per process: no default or namespace
        # of an earlier call may leak into a later one
        out = str(tmp_path / "gen.csv")
        calls = [
            ["fit", "--bogus", str(balanced_csv)],
            ["fit", str(balanced_csv), "--json", "--estimators", "LZ"],
            ["fit", str(balanced_csv)],
            ["generate", "--N", "12", "--seed", "4", "--out", out],
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        for argv in calls:
            code = main(argv)
            in_process = (code, *capsys.readouterr())
            fresh = subprocess.run([sys.executable, "-m", "pgee.cli", *argv], env=env,
                                   capture_output=True, text=True, timeout=300)
            assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr), argv


class TestFit:
    def test_balanced_full_table(self, balanced_csv, capsys):
        code = main(["fit", str(balanced_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: yes" in out
        for tag in ("LZ", "DF", "KC", "MD", "FG", "MBN", "PAN", "GST",
                    "WL", "WB", "RS", "FW", "FZ", "AR"):
            assert f"  {tag}" in out
        assert "rho_s:" in out
        assert "(UnbalancedPooling)" not in out

    def test_unbalanced_dashes(self, unbalanced_csv, capsys):
        code = main(["fit", str(unbalanced_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "—" in out
        assert "(UnbalancedPooling)" in out

    def test_no_penalty_separated_exits_2(self, separated_csv, capsys):
        code = main(["fit", str(separated_csv), "--no-penalty", "--corr", "ind",
                     "--alpha", "0", "--max-iter", "200"])
        out = capsys.readouterr().out
        assert code == 2
        assert "converged: no" in out
        assert "beta_cap" in out

    def test_json_schema(self, balanced_csv, capsys):
        code = main(["fit", str(balanced_csv), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == "1"
        assert payload["converged"] is True
        assert set(payload["beta"]) == {"intercept", "treat", "t"}
        assert len(payload["estimators"]) == 14
        lz = payload["estimators"]["LZ"]["coefficients"]["treat"]
        assert {"se", "t", "p", "ci"} <= set(lz)
        assert "rho" in payload["overcorrection"]

    def test_estimator_subset_and_bad_tag(self, balanced_csv, capsys, monkeypatch):
        code = main(["fit", str(balanced_csv), "--estimators", "LZ,AR"])
        out = capsys.readouterr().out
        assert code == 0
        assert "  MD" not in out
        # a bad tag is rejected before any fitting work
        monkeypatch.setattr(pgee.cli, "fit", None)
        code = main(["fit", str(balanced_csv), "--estimators", "LZ,XX"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_repeated_estimator_one_row(self, balanced_csv, capsys):
        assert main(["fit", str(balanced_csv), "--estimators", "LZ,KC,LZ"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n  LZ ") == out.count("\n  KC ") == 3  # one row per coefficient

    def test_field_over_csv_limit_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "long-field.csv"
        path.write_text("cluster,y,x1\nc0,1," + "1" * 200_000 + "\n")
        for command in ("fit", "diagnose"):
            assert main([command, str(path)]) == 1
            _assert_only_error_line(capsys, f"{path}:2: field larger than field limit")

    def test_diagnostic_not_computable_still_reports(self, owned_csv, capsys):
        assert main(["fit", str(owned_csv)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        last = out.strip().splitlines()[-1]
        assert last == "rho_s: not computable (cluster c0: remaining information singular)"

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv")])
        assert code == 1

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--phi", "inf"], "phi"),
            (["--phi", "nan"], "phi"),
            (["--tol", "nan"], "tol"),
        ],
    )
    def test_non_finite_flag_one_error_line(self, balanced_csv, capsys, flags, message):
        assert main(["fit", str(balanced_csv), *flags]) == 1
        _assert_one_error_line(capsys, message)

    def test_each_estimator_evaluated_once(self, balanced_csv, capsys, monkeypatch):
        calls = []
        real = pgee.cli.estimator_table

        def counting(kernel, estimators):
            calls.append(list(estimators))
            return real(kernel, estimators)

        monkeypatch.setattr(pgee.cli, "estimator_table", counting)
        assert main(["fit", str(balanced_csv), "--estimators", "LZ,KC,AR"]) == 0
        assert calls == [[EstimatorId.LZ, EstimatorId.KC, EstimatorId.AR]]

    def test_zero_se_row_not_available(self, balanced_csv, capsys, monkeypatch):
        # a variance clipped to 0 gives SE 0, which the Wald test refuses
        real = pgee.cli.estimator_table

        def zero_treat_se(kernel, estimators):
            cov, se, computable, why = real(kernel, estimators)
            se[:, estimators.index(EstimatorId.MD), 1] = 0.0
            return cov, se, computable, why

        monkeypatch.setattr(pgee.cli, "estimator_table", zero_treat_se)
        assert main(["fit", str(balanced_csv)]) == 0
        out = capsys.readouterr().out
        treat_block = out.split("[treat]")[1].split("[t]")[0]
        md_row = next(l for l in treat_block.splitlines() if l.startswith("  MD"))
        assert "(ZeroSE)" in md_row and "—" in md_row
        assert "(ZeroSE)" not in out.split("[treat]")[0]
        assert main(["fit", str(balanced_csv), "--json"]) == 0
        md = json.loads(capsys.readouterr().out)["estimators"]["MD"]
        assert md["computable"] is True
        assert md["coefficients"]["treat"] == {"se": 0.0, "reason": "ZeroSE"}
        assert {"se", "t", "p", "ci"} <= set(md["coefficients"]["intercept"])

    def test_all_zero_outcomes(self, tmp_path, capsys):
        # no events: some estimators clip the time coefficient's variance to 0
        lines = ["cluster,y,treat,t"]
        for i in range(1, 11):
            lines += [f"{i},0,{int(i <= 3)},{0.2 * j}" for j in range(1, 5)]
        path = tmp_path / "zeros.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path)]) in (0, 2)
        assert main(["fit", str(path), "--json"]) in (0, 2)

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    def test_floored_dispersion_is_one_note(self, tmp_path, capsys, command):
        # no events: the Pearson dispersion is floored on most iterations
        path = tmp_path / "zeros-2-6.csv"
        assert main(["generate", "--N", "10", "--n", "2/6", "--rate", "0.1",
                     "--rho", "0.3", "--structure", "ar1", "--seed", "4",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        assert main([command, str(path), "--corr", "ind", "--phi", "estimate"]) in (0, 2)
        err = capsys.readouterr().err
        assert "Warning" not in err and ".py:" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("note: estimated dispersion fell below")

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize(
        "header,name", [("cluster,y,intercept", "intercept"), ("cluster,y,x,x", "x")]
    )
    def test_duplicate_column_name_one_error_line(
        self, tmp_path, capsys, command, header, name
    ):
        k = header.count(",") - 1
        lines = [header]
        for i in range(10):
            lines += [f"c{i},{j % 2}" + f",{float(i % 2)}" * k for j in range(3)]
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main([command, str(path), "--json"]) == 1
        _assert_one_error_line(capsys, f"duplicate column name {name!r}")


class TestDiagnose:
    def test_benchmark_balanced_arms(self, tmp_path, capsys):
        lines = ["cluster,y,x1"]
        for i in range(10):
            arm = float(i < 5)
            for j in range(4):
                lines.append(f"c{i},{j % 2},{arm}")
        path = tmp_path / "arms.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["diagnose", str(path), "--treatment-col", "x1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "benchmark 1/(N_min - 1) = 0.2500" in out
        assert "overcorrection eigenvalues" in out

    def test_benchmark_small_arm(self, tmp_path, capsys):
        lines = ["cluster,y,x1"]
        for i in range(10):
            arm = float(i < 2)
            for j in range(4):
                lines.append(f"c{i},{j % 2},{arm}")
        path = tmp_path / "arms2.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["diagnose", str(path), "--treatment-col", "x1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "benchmark 1/(N_min - 1) = 1.0000" in out

    def test_no_treatment_col(self, balanced_csv, capsys):
        code = main(["diagnose", str(balanced_csv)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rho_s:" in out
        assert "benchmark" not in out

    def test_json_report(self, balanced_csv, capsys):
        assert main(["diagnose", str(balanced_csv), "--json", "--treatment-col", "treat"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert (report["command"], report["converged"]) == ("diagnose", True)
        assert set(report["overcorrection"]["rho"]) == {"intercept", "treat", "t"}
        assert report["benchmark"]["n1"] + report["benchmark"]["n0"] == 10

    def test_benchmark_undefined_for_one_arm(self, balanced_csv, capsys):
        assert main(["diagnose", str(balanced_csv), "--treatment-col", "intercept"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.strip().splitlines()[-1] == "benchmark undefined: smaller arm has 0 cluster(s)"

    def test_diagnostic_not_computable_exits_2(self, owned_csv, capsys):
        assert main(["diagnose", str(owned_csv)]) == 2
        _assert_only_error_line(
            capsys, "error: diagnostic not computable (cluster c0: remaining information singular)"
        )

    def test_no_kernel_exits_2(self, tmp_path, capsys):
        # x1 is 0 everywhere: the first information matrix is singular
        path = tmp_path / "zero-column.csv"
        path.write_text("cluster,y,x1\n" + "".join(
            f"c{i},{int((i + 2 * j) % 3 == 0)},0\n" for i in range(10) for j in range(2)))
        assert main(["diagnose", str(path)]) == 2
        _assert_only_error_line(capsys, "error: no kernel available (fit failed immediately)")

    def test_non_subject_level_column_rejected(self, balanced_csv, capsys):
        code = main(["diagnose", str(balanced_csv), "--treatment-col", "t"])
        assert code == 1

    def test_error_line_precedes_notes(self, tmp_path, capsys):
        path = tmp_path / "zeros-2-6.csv"
        assert main(["generate", "--N", "10", "--n", "2/6", "--rate", "0.1",
                     "--rho", "0.3", "--structure", "ar1", "--seed", "4",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        code = main(["diagnose", str(path), "--corr", "ind", "--phi", "estimate",
                     "--treatment-col", "nope"])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[0] == "error: no column named 'nope'"
        assert len(lines) == 2 and lines[1].startswith("note: estimated dispersion")


class TestGenerate:
    def test_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "gen.csv"
        code = main(["generate", "--N", "12", "--n", "4", "--rate", "0.3",
                     "--rho", "0.2", "--seed", "9", "--out", str(out_path)])
        assert code == 0
        fit_code = main(["fit", str(out_path)])
        assert fit_code in (0, 2)

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            main(["generate", "--N", "12", "--rate", "0.3", "--rho", "0.2",
                  "--seed", "9", "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_scenario_exits_1(self, tmp_path, capsys):
        code = main(["generate", "--N", "10", "--rate", "1.5",
                     "--rho", "0.2", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_warnings_are_notes(self, tmp_path, capsys, monkeypatch):
        real = pgee.cli.calibrate_intercept

        def warning_calibration(scenario):
            warnings.warn("calibration note", RuntimeWarning)
            return real(scenario)

        monkeypatch.setattr(pgee.cli, "calibrate_intercept", warning_calibration)
        assert main(["generate", "--N", "10", "--out", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().err == "note: calibration note\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--N", "3"], "clusters"),  # fewer than p + 1 clusters
            (["--rate", "1e-12"], "unreachable"),  # no intercept reaches it
            (["--out", "{tmp}/missing/x.csv"], "No such file"),
            (["--beta1", "nan"], "beta1"),
            (["--gamma", "inf"], "gamma"),
            (["--n", "2/x"], "cluster-size pattern '2/x'"),
        ],
    )
    def test_bad_input_one_error_line(self, tmp_path, capsys, flags, message):
        # the last of a repeated flag wins, so ``flags`` override the defaults
        code = main(["generate", "--N", "10", "--out", str(tmp_path / "x.csv"),
                     *(f.format(tmp=tmp_path) for f in flags)])
        assert code == 1
        _assert_one_error_line(capsys, message)


SIM_CONFIG = """
[tiny]
N = 10
event_rate = 0.2
rho = 0.2
true = exchangeable
"""


ZERO_SE_CONFIG = """\
[z]
N = 12
n = 3
event_rate = 0.2
rho = 0.1
true = exchangeable
beta1 = log2
test = beta1,beta2
"""


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out_dir, workers in ((out1, "1"), (out2, "2")):
            code = main(["simulate", "--config", str(cfg), "--reps", "40",
                         "--seed", "4", "--workers", workers,
                         "--estimators", "LZ,KC,AR", "--min-converged", "20",
                         "--out-dir", str(out_dir)])
            assert code == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["schema_version"] == "1"
        assert summary["scenarios"][0]["b_total"] == 40
        lines = (out1 / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 3  # header + three estimators, one coefficient

    def test_repeated_estimator_one_row(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        code = main(["simulate", "--config", str(cfg), "--reps", "20", "--estimators", "LZ,KC,LZ",
                     "--min-converged", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "results.csv").open()))
        assert [row["estimator"] for row in rows] == ["LZ", "KC"]

    def test_zero_se_counted_out_of_computable(self, tmp_path, capsys):
        # some replications of this cell give a tested SE of exactly 0
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(ZERO_SE_CONFIG)
        outs = [tmp_path / "w1", tmp_path / "w2"]
        for out_dir, workers in zip(outs, ("1", "2")):
            code = main(["simulate", "--config", str(cfg), "--reps", "200", "--seed", "1",
                         "--workers", workers, "--out-dir", str(out_dir)])
            assert code == 0
            assert capsys.readouterr().err == ""
        for name in ("results.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        spec, = parse_config(ZERO_SE_CONFIG, base_seed=1)
        block = run_block(spec, range(200))  # rows do not depend on the blocks
        zero = dict(zip((e.name for e in EstimatorId), np.sum(block.why == "ZeroSE", axis=0)))
        assert sum(zero.values()) > 0
        b_eff = block.converged.sum()
        rows = list(csv.DictReader((outs[0] / "results.csv").open()))
        assert len(rows) == 2 * len(EstimatorId)
        for row in rows:
            assert int(row["n_computable"]) == b_eff - zero[row["estimator"]]

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[x]\nN = 10\n")
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 1

    def test_bad_size_pattern_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG + "n = 2/x\n")
        code = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 1
        _assert_one_error_line(capsys, "cluster-size pattern '2/x'")

    def test_non_integer_thread_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        monkeypatch.setenv("PGEE_THREADS", "abc")
        code = main(["simulate", "--config", str(cfg), "--reps", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "PGEE_THREADS" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_estimator_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        code = main(["simulate", "--config", str(cfg), "--estimators", "LZ,NOPE",
                     "--out-dir", str(tmp_path)])
        assert code == 1

    def test_no_converged_replications_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        code = main(["simulate", "--config", str(cfg), "--reps", "0",
                     "--min-converged", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        _assert_one_error_line(capsys, "only 0 converged replications")

    def test_negative_reps_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        code = main(["simulate", "--config", str(cfg), "--reps", "-1",
                     "--min-converged", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        _assert_one_error_line(capsys, "--reps")

    def test_out_dir_below_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SIM_CONFIG)
        code = main(["simulate", "--config", str(cfg), "--reps", "2",
                     "--min-converged", "1", "--out-dir", str(cfg / "out")])
        assert code == 1
        _assert_one_error_line(capsys, "grid.cfg")


class TestExtremeLinearPredictor:
    """Linear predictors beyond exp's range are clamped to +/- ETA_CAP; a
    design whose marginal mean is 1 in floating point is refused."""

    def _run(self, command, tmp_path, rate, beta1):
        if command == "generate":
            return main(["generate", "--N", "10", "--rate", rate, "--beta1", beta1,
                         "--out", str(tmp_path / "x.csv")])
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"[x]\nN = 10\nn = 4\nevent_rate = {rate}\nrho = 0.2\n"
                       f"true = exchangeable\nbeta1 = {beta1}\n")
        return main(["simulate", "--config", str(cfg), "--reps", "200", "--seed", "1",
                     "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", ["generate", "simulate"])
    def test_far_negative_runs_without_notes(self, tmp_path, capsys, command):
        assert self._run(command, tmp_path, "0.2", "-800") == 0
        assert capsys.readouterr().err == ""
        if command == "simulate":
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert summary["scenarios"][0]["b_effective"] == 200

    @pytest.mark.parametrize("command", ["generate", "simulate"])
    def test_mean_of_one_is_one_error_line(self, tmp_path, capsys, command):
        assert self._run(command, tmp_path, "0.5", "60") == 1
        _assert_only_error_line(capsys, "marginal mean 1")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_draw_names_its_scenario_and_writes_nothing(self, tmp_path, capsys, workers):
        # the second of two sections cannot be drawn: the one error line
        # names it, and the output directory is never created
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("[fine]\nN = 10\nn = 4\nevent_rate = 0.2\nrho = 0.2\n"
                       "true = exchangeable\n\n[extreme]\nN = 10\nn = 4\n"
                       "event_rate = 0.5\nrho = 0.2\ntrue = exchangeable\nbeta1 = 60\n")
        out_dir = tmp_path / "out"
        # 300 replications make two blocks, so two workers run a pool
        assert main(["simulate", "--config", str(cfg), "--reps", "300", "--workers", workers,
                     "--min-converged", "1", "--out-dir", str(out_dir)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: scenario extreme-N10-") and "marginal mean 1" in err
        assert not out_dir.exists()
