"""End-to-end tests for the command-line interface."""

import csv
import gc
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmsbound import cli
from lmsbound.cli import main
from lmsbound.ingest import parse_table
from lmsbound.linalg import NonConvergence


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def csv_rows(output):
    lines = [ln for ln in output.strip().splitlines() if ln]
    header = lines[0].split(",")
    assert header[0] == "row"
    out = {}
    for line in lines[1:]:
        label, *cells = line.split(",")
        out[label] = cells
    return out


class TestSupgain:
    def test_gaussian_benchmark_csv(self, runner):
        res = run(runner, "supgain", "--model", "1B", "--format", "csv")
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        assert float(rows["corollary2"][0]) == pytest.approx(2 / 13, abs=1e-5)
        assert float(rows["theorem1"][0]) == pytest.approx(0.16097, abs=5e-4)
        assert float(rows["widrow_lambda_max"][0]) == pytest.approx(0.5)
        assert float(rows["widrow_trace"][0]) == pytest.approx(0.4)
        assert float(rows["zhu_criterion"][0]) == pytest.approx(0.125)

    def test_degenerate_benchmark_flags(self, runner):
        res = run(runner, "supgain", "--model", "1D", "--format", "csv")
        rows = csv_rows(res.output)
        assert float(rows["corollary2"][0]) == pytest.approx(1 / 3, abs=1e-4)
        assert "tolerance-limited" in rows["corollary2"][3]
        assert "inapplicable" in rows["zhu_criterion"][3]

    def test_strict_mode(self, runner):
        # A regular law reads the same in both modes; the singular 1D has no
        # strictly feasible point, so its certificate sups are 0 and flagged.
        for model in ("1B", "reed"):
            strict = run(runner, "supgain", "--model", model, "--mode", "strict")
            assert strict.exit_code == 0
            assert strict.output == run(runner, "supgain", "--model", model).output
        res = run(runner, "supgain", "--model", "1D", "--mode", "strict",
                  "--format", "csv")
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        for kind in ("theorem1", "corollary2"):
            assert rows[kind][:4] == ["0.0", "", "", "strictly-infeasible"]
            assert "no strictly feasible point" in rows[kind][4]
        assert float(rows["widrow_trace"][0]) == 1.0

    def test_printed_model_skips_free_matrix_route(self, runner):
        res = run(runner, "supgain", "--model", "reed", "--format", "csv")
        rows = csv_rows(res.output)
        assert rows["theorem1"][0] == "skipped"
        assert float(rows["corollary2"][0]) == pytest.approx(0.0716, abs=1e-4)

    def test_criteria_filter(self, runner):
        res = run(runner, "supgain", "--model", "1A",
                  "--criteria", "zhu_criterion", "--format", "csv")
        rows = csv_rows(res.output)
        assert list(rows) == ["zhu_criterion"]

    def test_unknown_criterion_is_config_error(self, runner):
        res = run(runner, "supgain", "--model", "1A", "--criteria", "widrow")
        assert res.exit_code == 2

    def test_inline_gaussian_model(self, runner):
        res = run(runner, "supgain", "--sigma1", "1", "--sigma2", "1",
                  "--rho", "0", "--criteria", "corollary2", "--format", "csv")
        rows = csv_rows(res.output)
        assert float(rows["corollary2"][0]) == pytest.approx(0.5, abs=1e-5)

    def test_jsonl_output(self, runner):
        res = run(runner, "supgain", "--model", "1A", "--format", "jsonl")
        lines = [json.loads(ln) for ln in res.output.strip().splitlines()]
        by_row = {entry["row"]: entry for entry in lines}
        assert by_row["corollary2"]["cells"]["sup_gain"]["value"] \
            == pytest.approx(0.5, abs=1e-5)

    # A Gaussian law is labelled with the sigmas and rho it was given, or 0
    # without --rho.
    @pytest.mark.parametrize("args, label", [
        (("--sigma1", "3", "--sigma2", "7", "--rho", "0.1"), "gaussian(3.0,7.0,0.1)"),
        (("--sigma1", "1", "--sigma2", "2"), "gaussian(1.0,2.0,0)")])
    def test_gaussian_label(self, runner, args, label):
        res = run(runner, "supgain", *args, "--format", "jsonl")
        assert res.exit_code == 0
        tables = {json.loads(ln)["table"] for ln in res.output.splitlines()}
        assert tables == {f"supgain:{label}"}


TEXT_TABLES = Path(__file__).with_name("text_tables.txt")


class TestTextTables:
    """The ``--format table`` output of supgain and errorbound on the bundled
    models, pinned byte for byte in ``text_tables.txt``."""

    CASES = [section.split("\n", 1)
             for section in TEXT_TABLES.read_text().split("$ ")[1:]]

    @pytest.mark.parametrize("args, expected", CASES, ids=[c[0] for c in CASES])
    def test_output_is_unchanged(self, runner, args, expected):
        res = run(runner, *args.split())
        assert res.exit_code == 0
        assert res.output == expected


class TestModelResolution:
    def test_no_source_is_usage_error(self, runner):
        res = run(runner, "supgain")
        assert res.exit_code == 2
        assert "exactly one moment source" in res.output

    def test_two_sources_is_usage_error(self, runner):
        res = run(runner, "supgain", "--model", "1A", "--sigma1", "1",
                  "--sigma2", "1")
        assert res.exit_code == 2

    def test_unknown_benchmark(self, runner):
        res = run(runner, "supgain", "--model", "9Z")
        assert res.exit_code == 2

    def test_unknown_benchmark_prints_one_line(self, runner):
        res = run(runner, "supgain", "--model", "1E")
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: unknown benchmark '1E'; expected one of 1A, 1B, 1C, 1D, reed"]

    def test_missing_moments_file(self, runner, tmp_path):
        res = run(runner, "supgain", "--moments-file",
                  str(tmp_path / "none.csv"))
        assert res.exit_code == 2

    def test_moments_file_round_trip(self, runner, tmp_path):
        path = tmp_path / "mom.csv"
        path.write_text("1,0\n0,1\n4,0\n0,4\n")
        res = run(runner, "supgain", "--moments-file", str(path),
                  "--criteria", "corollary2", "--format", "csv")
        rows = csv_rows(res.output)
        assert float(rows["corollary2"][0]) == pytest.approx(0.5, abs=1e-5)

    def test_moments_file_bad_shape(self, runner, tmp_path):
        path = tmp_path / "mom.csv"
        path.write_text("1,0\n0,1\n4,0\n")
        res = run(runner, "supgain", "--moments-file", str(path))
        assert res.exit_code == 2
        assert "stack S over M4" in res.output

    def test_empirical_data_source(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((500, 2))
        path = tmp_path / "rows.prn"
        path.write_text("\n".join(f"{a} {b}" for a, b in rows) + "\n")
        res = run(runner, "supgain", "--data", str(path), "--recipe",
                  "column(0), column(1)", "--criteria", "widrow_trace",
                  "--format", "csv")
        assert res.exit_code == 0
        got = float(csv_rows(res.output)["widrow_trace"][0])
        emp = rows.T @ rows / len(rows)
        assert got == pytest.approx(2.0 / np.trace(emp), rel=1e-6)

    def test_one_row_law_certifies_tolerance_limited(self, runner, tmp_path):
        # A single row gives a singular law; both certificates hold only up to
        # the relaxed slack tolerance, and say so.
        path = tmp_path / "one.prn"
        path.write_text("484.0 0.0 0.0\n")
        res = run(runner, "supgain", "--data", str(path), "--recipe",
                  "column(0), square(0)", "--format", "csv")
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        for kind in ("theorem1", "corollary2"):
            assert rows[kind][3] == "tolerance-limited"

    def test_data_without_recipe(self, runner, tmp_path):
        path = tmp_path / "rows.prn"
        path.write_text("1 2\n")
        res = run(runner, "supgain", "--data", str(path))
        assert res.exit_code == 2
        assert "--recipe" in res.output


class TestErrorbound:
    def test_benchmark_values_csv(self, runner):
        res = run(runner, "errorbound", "--model", "1A", "--format", "csv")
        rows = csv_rows(res.output)
        assert float(rows["gain"][0]) == pytest.approx(0.4999, abs=1e-12)
        assert float(rows["corollary2"][0]) == pytest.approx(24.995, rel=1e-6)
        assert float(rows["zhu_criterion"][0]) == pytest.approx(
            0.004999, rel=1e-9)
        assert float(rows["chi_corollary2"][0]) == pytest.approx(
            0.0004, abs=1e-10)

    def test_degenerate_jsonl_marks_infinite(self, runner):
        res = run(runner, "errorbound", "--model", "1D", "--format", "jsonl")
        by_row = {e["row"]: e for e in
                  (json.loads(ln) for ln in res.output.strip().splitlines())}
        cor2 = by_row["corollary2"]["cells"]["value"]
        assert cor2["value"] is None
        assert cor2.get("infinite") is True
        zhu = by_row["zhu_criterion"]["cells"]["value"]
        assert zhu.get("infinite") is True
        assert "tolerance-limited" in by_row["flags"]["cells"]["value"]["text"]

    def test_strict_mode(self, runner):
        for model in ("1A", "1B", "1C", "reed"):
            strict = run(runner, "errorbound", "--model", model, "--mode", "strict")
            assert strict.exit_code == 0
            assert strict.output == run(runner, "errorbound", "--model", model).output

    @pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
    def test_strict_singular_law_has_no_working_gain(self, runner, fmt):
        res = run(runner, "errorbound", "--model", "1D", "--mode", "strict",
                  "--format", fmt)
        assert res.exit_code == 0
        assert "sup gain 0.0 leaves no positive working gain" in res.output
        if fmt == "csv":
            rows = csv_rows(res.output)
            assert all(rows[row] == ["-"] for row in rows if row != "notes")
        # A gain that the criteria cannot certify strictly stays an input error.
        res = run(runner, "errorbound", "--model", "1D", "--mode", "strict",
                  "--gain", "0.05")
        assert res.exit_code == 2
        assert "not strictly feasible" in res.output

    def test_explicit_gain_override(self, runner):
        res = run(runner, "errorbound", "--model", "1B", "--gain", "0.1",
                  "--format", "csv")
        rows = csv_rows(res.output)
        assert float(rows["gain"][0]) == pytest.approx(0.1)
        # identity rate at a = 0.1: min(2 - 0.7, 8 - 5.2) = 1.3
        assert float(rows["chi_corollary2"][0]) == pytest.approx(1.3, abs=1e-9)

    def test_given_gain_searches_no_sup(self, runner, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("errorbound --gain must search no sup")
        for target in ("lmsbound.bounds.sup_gain", "lmsbound.report.sup_gain"):
            monkeypatch.setattr(target, fail)
        res = run(runner, "errorbound", "--model", "1B", "--gain", "0.05")
        assert res.exit_code == 0

    def test_printed_model_skips_free_route(self, runner):
        res = run(runner, "errorbound", "--model", "reed", "--format", "csv")
        rows = csv_rows(res.output)
        assert rows["chi_theorem1"][0] == "skipped"
        assert rows["theorem1"][0] == "skipped"
        assert float(rows["corollary2"][0]) > 0

    def test_gain_beyond_range_is_config_error(self, runner):
        res = run(runner, "errorbound", "--model", "1A", "--gain", "0.6")
        assert res.exit_code == 2

    def test_bad_xi(self, runner):
        res = run(runner, "errorbound", "--model", "1A", "--xi", "-1")
        assert res.exit_code == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--gain", "nan", "gain must be positive and finite, got nan"),
        ("--gain", "inf", "gain must be positive and finite, got inf"),
        ("--xi", "nan", "xi must be positive and finite, got nan"),
        ("--xi", "inf", "xi must be positive and finite, got inf")])
    def test_non_finite_gain_and_xi_are_input_errors(self, runner, option, value,
                                                     message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(runner, "errorbound", "--model", "1B", option, value)
        assert res.exit_code == 2
        assert message in res.stderr

    def test_non_finite_sigma_is_input_error(self, runner):
        res = run(runner, "errorbound", "--model", "1A", "--sigma-eps", "nan")
        assert res.exit_code == 2
        assert "sigma_eps" in res.output
        # A negative noise level is rejected here as it is by ``simulate``.
        res = run(runner, "errorbound", "--model", "1B", "--sigma-eps", "-0.1")
        assert res.exit_code == 2
        assert "nonnegative" in res.output


class TestSimulate:
    ARGS = ("simulate", "--model", "1A", "--gain", "0.1", "--iters", "50",
            "--reps", "4", "--seed", "7")

    def test_table_output_echoes_protocol(self, runner):
        res = run(runner, *self.ARGS)
        assert res.exit_code == 0
        assert "gain = 0.1" in res.output
        assert "master_seed = 7" in res.output
        assert "replications = 4" in res.output
        assert "classification = bounded" in res.output

    def test_jsonl_structure(self, runner):
        res = run(runner, *self.ARGS, "--format", "jsonl")
        lines = [json.loads(ln) for ln in res.output.strip().splitlines()]
        assert "config" in lines[0]
        assert lines[0]["config"]["master_seed"] == 7
        body = lines[1:-1]
        assert len(body) == 4
        assert [e["replication"] for e in body] == [0, 1, 2, 3]
        assert all(np.isfinite(e["terminal_sq_error"]) for e in body)
        assert "summary" in lines[-1]
        assert lines[-1]["summary"]["classification"] == "bounded"

    def test_csv_single_record(self, runner):
        res = run(runner, *self.ARGS, "--format", "csv")
        header, record = res.output.strip().splitlines()
        assert header.split(",")[:2] == ["model", "gain"]
        assert '"1.0,1.0"' in record

    def test_requires_gain(self, runner):
        res = run(runner, "simulate", "--model", "1A")
        assert res.exit_code == 2
        assert "--gain is required" in res.output

    def test_zero_gain_trivial_law(self, runner):
        res = run(runner, "simulate", "--model", "1A", "--gain", "0",
                  "--iters", "1", "--reps", "2000", "--format", "jsonl")
        summary = json.loads(res.output.strip().splitlines()[-1])["summary"]
        # frozen filter keeps the initial law: E = dim + ||theta*||^2 = 4
        assert summary["terminal_mse"] == pytest.approx(4.0, rel=0.15)

    def test_init_choices(self, runner):
        base = ("simulate", "--model", "1A", "--gain", "0", "--iters", "1",
                "--reps", "3", "--format", "jsonl")
        zeros = run(runner, *base, "--init", "zeros")
        body = [json.loads(ln) for ln in zeros.output.strip().splitlines()][1:-1]
        assert all(e["terminal_sq_error"] == 2.0 for e in body)
        vec = run(runner, *base, "--init", "1,1")
        body = [json.loads(ln) for ln in vec.output.strip().splitlines()][1:-1]
        assert all(e["terminal_sq_error"] == 0.0 for e in body)

    def test_theta_star_override(self, runner):
        res = run(runner, "simulate", "--model", "1A", "--gain", "0",
                  "--iters", "1", "--reps", "2", "--theta-star", "0,0",
                  "--init", "zeros", "--format", "jsonl")
        body = [json.loads(ln) for ln in res.output.strip().splitlines()][1:-1]
        assert all(e["terminal_sq_error"] == 0.0 for e in body)

    def test_negative_sigma_is_config_error(self, runner):
        res = run(runner, "simulate", "--model", "1A", "--gain", "0.1",
                  "--sigma-eps", "-1", "--iters", "5", "--reps", "2")
        assert res.exit_code == 2

    NON_FINITE_MESSAGES = {
        "--sigma-eps": "sigma_eps must be finite and nonnegative, got",
        "--theta-star": "theta_star must be finite, got",
        "--init": "fixed init vector must be finite, got",
        "--gain": "gain must be finite and nonnegative, got",
    }

    @pytest.mark.parametrize("option, value", [
        ("--sigma-eps", "nan"), ("--theta-star", "nan,1"), ("--init", "inf,0"),
        ("--gain", "inf"), ("--gain", "nan")])
    def test_non_finite_input_is_config_error(self, runner, option, value):
        res = run(runner, "simulate", "--model", "1A", "--gain", "0.1",
                  option, value, "--iters", "5", "--reps", "2")
        assert res.exit_code == 2
        assert "classification" not in res.output
        assert res.output.startswith("error: " + self.NON_FINITE_MESSAGES[option])

    @pytest.mark.parametrize("command, option, value", [
        ("simulate", "--seed", "-1"), ("simulate", "--reps", "0"),
        ("simulate", "--iters", "0"), ("report", "--seed", "-3"),
        ("report", "--reps", "0"), ("report", "--iters", "-5")])
    def test_out_of_range_count_names_its_flag(self, runner, tmp_path,
                                               command, option, value):
        base = {"simulate": ("simulate", "--model", "1A", "--gain", "0.1"),
                "report": ("report", "--out-dir", str(tmp_path / "reports"))}
        res = run(runner, *base[command], option, value)
        assert res.exit_code == 2
        assert f"Invalid value for '{option}'" in res.output
        assert "Usage:" in res.output
        assert not (tmp_path / "reports").exists()

    def test_printed_model_cannot_simulate(self, runner, tmp_path):
        path = tmp_path / "mom.csv"
        path.write_text("1,0\n0,1\n4,0\n0,4\n")
        res = run(runner, "simulate", "--moments-file", str(path),
                  "--gain", "0.1", "--iters", "5", "--reps", "2")
        assert res.exit_code == 2
        assert "not samplable" in res.output


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, runner, tmp_path):
        cfg = tmp_path / "bench.ini"
        cfg.write_text(
            "[model]\nmodel = 1A\n\n"
            "[protocol]\ngain = 0.1\niters = 20\nreps = 3\nseed = 5\n")
        res = run(runner, "simulate", "--config", str(cfg))
        assert res.exit_code == 0
        assert "gain = 0.1" in res.output
        assert "master_seed = 5" in res.output

        res = run(runner, "simulate", "--config", str(cfg), "--gain", "0.2")
        assert "gain = 0.2" in res.output

    def test_config_for_supgain(self, runner, tmp_path):
        cfg = tmp_path / "bench.ini"
        cfg.write_text("[run]\nmodel = 1C\ncriteria = corollary2\n"
                       "format = csv\n")
        res = run(runner, "supgain", "--config", str(cfg))
        rows = csv_rows(res.output)
        assert list(rows) == ["corollary2"]
        assert float(rows["corollary2"][0]) == pytest.approx(0.4, abs=1e-5)

    def test_missing_config_file(self, runner, tmp_path):
        res = run(runner, "supgain", "--config", str(tmp_path / "nope.ini"))
        assert res.exit_code == 2

    def test_keys_named_unlike_their_parameters(self, runner, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text("[model]\nmodel = 1A\n\n"
                       "[protocol]\ngain = 0\niters = 1\nreps = 3\n"
                       "init = zeros\nformat = jsonl\n")
        res = run(runner, "simulate", "--config", str(cfg))
        assert res.exit_code == 0
        lines = [json.loads(ln) for ln in res.output.strip().splitlines()]
        assert lines[0]["config"]["init"] == "zeros"
        assert [e["terminal_sq_error"] for e in lines[1:-1]] == [2.0] * 3

    def test_report_out_dir_from_config(self, runner, tmp_path):
        out = tmp_path / "from-config"
        cfg = tmp_path / "report.ini"
        cfg.write_text(f"[report]\nout_dir = {out}\n")
        res = run(runner, "report", "--config", str(cfg), "--skip-simulation")
        assert res.exit_code == 0
        assert res.output.strip().splitlines() == [
            str(out / "table3.csv"), str(out / "table4.csv")]
        assert (out / "table4.csv").exists()

    def test_file_without_section_is_input_error(self, runner, tmp_path):
        cfg = tmp_path / "flat.ini"
        cfg.write_text("model = 1A\n")
        res = run(runner, "supgain", "--config", str(cfg))
        assert res.exit_code == 2
        assert "section" in res.output

    def test_malformed_value_is_input_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nmodel = 1A\nxi = abc\n")
        res = run(runner, "errorbound", "--config", str(cfg))
        assert res.exit_code == 2
        assert "xi" in res.output


class TestTableContract:
    """Table names, column order and row order of the table commands."""

    @staticmethod
    def records(output):
        return [json.loads(ln) for ln in output.strip().splitlines()]

    def test_supgain(self, runner):
        columns = ["sup_gain", "slack", "p_min_eigenvalue", "flags", "note"]
        res = run(runner, "supgain", "--model", "1C", "--format", "jsonl")
        records = self.records(res.output)
        assert {r["table"] for r in records} == {"supgain:1C"}
        assert [r["row"] for r in records] == [
            "theorem1", "corollary2", "widrow_lambda_max", "widrow_trace",
            "zhu_criterion"]
        assert all(sorted(r["cells"]) == sorted(columns) for r in records)
        csv = run(runner, "supgain", "--model", "1C", "--format", "csv")
        assert csv.output.splitlines()[0] == "row," + ",".join(columns)

    def test_errorbound(self, runner):
        res = run(runner, "errorbound", "--model", "1C", "--format", "jsonl")
        records = self.records(res.output)
        assert {r["table"] for r in records} == {"errorbound:1C"}
        assert [r["row"] for r in records] == [
            "gain", "chi_theorem1", "chi_corollary2", "theorem1",
            "corollary2", "zhu_criterion", "flags"]
        assert all(list(r["cells"]) == ["value"] for r in records)


class TestNonConvergence:
    """Eigensolver non-convergence ends in exit code 3, not a traceback."""

    # Each command builds its model through linalg.eigh before anything else
    # solves, so a failing LAPACK eigensolver is met first there.
    @pytest.mark.parametrize("args", [
        ("supgain", "--model", "1A"),
        ("errorbound", "--model", "1C"),
        ("simulate", "--model", "1D", "--gain", "0.1", "--iters", "5",
         "--reps", "2"),
    ])
    def test_exit_code_3(self, runner, monkeypatch, args):
        def fail(a):
            raise np.linalg.LinAlgError("injected LAPACK failure")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        res = run(runner, *args)
        assert res.exit_code == 3
        assert "did not converge" in res.output


class TestErrorContract:
    """Every input error and non-convergence, raised inside every subcommand,
    ends in its exit code and one ``error:`` line on stderr, never a traceback."""

    # Per subcommand: its arguments and a library call it makes.
    COMMANDS = {
        "supgain": (("supgain", "--model", "1A"), "lmsbound.report.supgain_results"),
        "errorbound": (("errorbound", "--model", "1A"),
                       "lmsbound.report.build_errorbound_table"),
        "simulate": (("simulate", "--model", "1A", "--gain", "0.1"),
                     "lmsbound.cli.run_lms"),
        "report": (("report", "--out-dir", "unused"),
                   "lmsbound.report.write_benchmark_reports"),
        "ingest-check": (("ingest-check", "--data", "unused.csv", "--recipe",
                          "column(0)"), "lmsbound.cli.parse_table"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("error, code", [
        *((error, 2) for error in cli._INPUT_ERRORS), (NonConvergence, 3)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
    def test_exit_code_and_one_line(self, runner, monkeypatch, command, error,
                                    code):
        args, target = self.COMMANDS[command]

        def fail(*args, **kwargs):
            raise error("injected failure")
        monkeypatch.setattr(target, fail)
        res = run(runner, *args)
        assert res.exit_code == code
        lines = res.stderr.splitlines()
        assert lines == ["error: injected failure"]
        assert "Traceback" not in res.output

    SOURCES = ("exactly one moment source is required: --model, "
               "--sigma1/--sigma2/--rho, --moments-file, or --data/--recipe")

    # The CLI's own input checks, one per check.
    @pytest.mark.parametrize("args, message", [
        (("supgain",), SOURCES),
        (("errorbound", "--model", "1A", "--sigma1", "1", "--sigma2", "1"), SOURCES),
        (("supgain", "--model", "9Z"),
         "unknown benchmark '9Z'; expected one of 1A, 1B, 1C, 1D, reed"),
        (("supgain", "--sigma1", "1"), "--sigma1 and --sigma2 are both required"),
        (("supgain", "--data", "rows.prn"), "--data needs --recipe"),
        (("supgain", "--model", "1A", "--criteria", "widrow"),
         "unknown criterion 'widrow'; expected one of ['theorem1', 'corollary2', "
         "'widrow_lambda_max', 'widrow_trace', 'zhu_criterion']"),
        (("supgain", "--model", "1A", "--criteria", ","),
         "--criteria must name distinct criteria, got ','"),
        (("supgain", "--model", "1A", "--criteria", "corollary2,corollary2"),
         "--criteria must name distinct criteria, got 'corollary2,corollary2'"),
        (("errorbound", "--model", "1B", "--xi", "nan"),
         "xi must be positive and finite, got nan"),
        (("simulate", "--model", "1A"), "--gain is required for simulate"),
        (("simulate", "--model", "1A", "--gain", "0.1", "--theta-star", "1,x"),
         "bad vector '1,x'; expected comma-separated numbers"),
        (("simulate", "--model", "1A", "--gain", "0.1", "--init", "0;1"),
         "bad vector '0;1'; expected comma-separated numbers"),
        (("ingest-check", "--data", "rows.prn"), "--data and --recipe are required"),
    ], ids=["no-source", "two-sources", "unknown-model", "one-sigma",
            "data-without-recipe", "unknown-criterion", "empty-criteria",
            "repeated-criteria", "xi", "no-gain",
            "theta-star", "init", "ingest-without-recipe"])
    def test_cli_input_checks_print_one_line(self, runner, args, message):
        res = run(runner, *args)
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [f"error: {message}"]
        assert "Usage:" not in res.output

    # A law whose fourth moment overflows float64 is an input error, reported
    # before numpy can print an overflow warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args", [
        ("supgain", "--sigma1", "1e100", "--sigma2", "1e100"),
        ("simulate", "--sigma1", "1e100", "--sigma2", "1e100", "--gain", "0.1",
         "--iters", "5", "--reps", "2"),
        ("supgain", "--data", "{rows}", "--recipe", "column(0), column(1)"),
    ], ids=["gaussian", "simulate", "data"])
    def test_overflowing_fourth_moment_prints_one_line(self, runner, tmp_path, args):
        rows = tmp_path / "rows.prn"
        rows.write_text("1e100 2e100\n-3e100 1e100\n2e99 5e100\n")
        res = run(runner, *(arg.format(rows=rows) for arg in args))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: the fourth moment M4 overflows float64; rescale the regressors"]

    # So is a law whose fourth moment is zero while its second moment is not:
    # every law has tr M4 >= (tr S)^2, so only underflow (or a bad file) gives it.
    @pytest.mark.parametrize("args, name, text", [
        (("--sigma1", "1e-100", "--sigma2", "1e-100"), None, None),
        (("--moments-file", "{path}"), "moments.prn", "1 0\n0 1\n0 0\n0 0\n"),
        (("--data", "{path}", "--recipe", "product(1, 2)"), "rows.csv",
         "2, -776.3119913799263, -1.9799803979776138e-126\n"),
    ], ids=["gaussian", "moments-file", "data"])
    def test_zero_fourth_moment_prints_one_line(self, runner, tmp_path, args, name,
                                                text):
        path = tmp_path / str(name)
        if text is not None:
            path.write_text(text)
        res = run(runner, "supgain", *(arg.format(path=path) for arg in args))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: the fourth moment M4 is zero but the second moment is not; "
            "rescale the regressors"]

    # A zero second moment (an all-zero table, or a Gaussian law whose
    # variances underflow), and a printed fourth moment that is zero on the
    # second moment's range, describe no regressor law: every command that
    # reads them exits 2 with one line.
    @pytest.mark.parametrize("args", [
        ("errorbound", "--gain", "0.1"), ("errorbound",), ("supgain",),
        ("simulate", "--gain", "0.1", "--iters", "5", "--reps", "2")],
        ids=["errorbound-gain", "errorbound", "supgain", "simulate"])
    @pytest.mark.parametrize("source, text, message", [
        (("--data", "{path}", "--recipe", "column(0), column(1)"), "0,0\n0,0\n",
         "the second moment is zero; there is no gain to certify"),
        (("--moments-file", "{path}"), "1,0\n0,0\n0,0\n0,1\n",
         "the fourth moment M4 is zero on the range of the second moment; "
         "no regressor law has such moments"),
        (("--sigma1", "1e-200", "--sigma2", "1e-200"), None,
         "the second moment is zero; there is no gain to certify")],
        ids=["zero-table", "m4-off-range", "gaussian-underflow"])
    def test_moments_of_no_law_print_one_line(self, runner, tmp_path, args, source,
                                              text, message):
        path = tmp_path / "law.csv"
        if text is not None:
            path.write_text(text)
        res = run(runner, *args, *(arg.format(path=path) for arg in source))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [f"error: {message}"]

    def test_zero_table_is_an_ingest_error(self, runner, tmp_path):
        path = tmp_path / "zero.prn"
        path.write_text("0 0\n0 0\n")
        res = run(runner, "ingest-check", "--data", str(path),
                  "--recipe", "column(0), column(1)")
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: the second moment is zero; there is no gain to certify"]

    # A printed second moment whose Frobenius norm overflows float64 is an
    # input error, reported before numpy can print an overflow warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_second_moment_prints_one_line(self, runner, tmp_path):
        moments = tmp_path / "moments.prn"
        moments.write_text("1e200 5e199\n5e199 1e200\n1 0\n0 1\n")
        res = run(runner, "supgain", "--moments-file", str(moments))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: the sum of squares overflows float64; rescale the input"]

    # So is a printed fourth moment whose sum of squares overflows.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_printed_fourth_moment_prints_one_line(self, runner, tmp_path):
        moments = tmp_path / "moments.prn"
        moments.write_text("1e150 0\n0 1e150\n1e300 0\n0 1e300\n")
        res = run(runner, "supgain", "--moments-file", str(moments))
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "error: the sum of squares overflows float64; rescale the input"]

    def test_click_parse_errors_keep_the_usage_block(self, runner):
        res = run(runner, "errorbound", "--model", "1A", "--xi", "abc")
        assert res.exit_code == 2
        assert res.stderr.startswith("Usage:")


class TestIngestCheck:
    def make_data(self, tmp_path):
        path = tmp_path / "meas.prn"
        path.write_text("press flow resp\n1 2 10\n3 4 20\n5 6 30\n7 8 40\n")
        return path

    def test_summary(self, runner, tmp_path):
        path = self.make_data(tmp_path)
        res = run(runner, "ingest-check", "--data", str(path),
                  "--recipe", "column(0), column(1)", "--response-col", "2",
                  "--format", "csv")
        assert res.exit_code == 0
        rows = csv_rows(res.output)
        assert float(rows["rows"][0]) == 4.0
        assert float(rows["columns"][0]) == 2.0
        assert rows["header_skipped"][0] == "True"
        assert rows["has_responses"][0] == "True"

    def test_canonical_output_round_trips(self, runner, tmp_path):
        path = self.make_data(tmp_path)
        out = tmp_path / "design.csv"
        res = run(runner, "ingest-check", "--data", str(path),
                  "--recipe", "column(0), square(1)", "--out", str(out))
        assert res.exit_code == 0
        design = parse_table(out)
        assert np.array_equal(design.values,
                              [[1, 4], [3, 16], [5, 36], [7, 64]])

    def test_requires_data_and_recipe(self, runner):
        res = run(runner, "ingest-check")
        assert res.exit_code == 2

    def test_bad_recipe(self, runner, tmp_path):
        path = self.make_data(tmp_path)
        res = run(runner, "ingest-check", "--data", str(path),
                  "--recipe", "col(0)")
        assert res.exit_code == 2

    def test_overflowing_constant_is_a_recipe_error(self, runner, tmp_path):
        path = self.make_data(tmp_path)
        res = run(runner, "ingest-check", "--data", str(path),
                  "--recipe", "column(0), constant(1e999)")
        assert res.exit_code == 2
        assert "'constant(1e999)': not a finite constant" in res.output

    def test_missing_file(self, runner, tmp_path):
        res = run(runner, "ingest-check", "--data", str(tmp_path / "no.prn"),
                  "--recipe", "column(0)")
        assert res.exit_code == 2

    def test_column_out_of_range(self, runner, tmp_path):
        path = self.make_data(tmp_path)
        res = run(runner, "ingest-check", "--data", str(path),
                  "--recipe", "column(9)")
        assert res.exit_code == 2


_BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", "", "--",
                                "0x10", "1,5", "1e-320", "\t"])
_BAD_TERMS = st.sampled_from(["constant(1e999)", "col(0)", "column(-1)", "column(x)",
                              "product(0)", "constant()", "", "column(0"])


@st.composite
def ingest_inputs(draw):
    """A table file's suffix and text, a recipe and a response column.

    Mostly valid: a rectangular numeric table and terms on its columns,
    with a header, ragged rows, bad tokens, out-of-range columns and bad
    terms mixed in now and then.
    """
    def rarely(strategy, usual, odds=30):
        return draw(strategy) if draw(st.integers(0, odds)) == 0 else usual

    csv_format = draw(st.booleans())
    width = draw(st.integers(1, 4))
    lines = [rarely(st.sampled_from(["a b c", "x,y", "1 b", "# note"]), "", 3)]
    for _ in range(draw(st.integers(0, 12))):
        count = rarely(st.integers(0, 5), width)
        value = st.one_of(st.floats(-1e3, 1e3), st.integers(-9, 9)).map(repr)
        lines.append((", " if csv_format else " ").join(
            rarely(_BAD_TOKENS, draw(value), 200) for _ in range(count)))
    column = st.integers(0, rarely(st.just(5), width - 1))
    term = st.one_of(
        column.map("column({})".format),
        column.map("square({})".format),
        st.tuples(column, column).map(lambda ij: "product({}, {})".format(*ij)),
        st.sampled_from(["constant(1)", "constant(-2.5)", "constant(0)"]))
    terms = draw(st.lists(term, min_size=rarely(st.just(0), 1), max_size=4))
    terms += rarely(st.lists(_BAD_TERMS, min_size=1, max_size=2), [])
    response = draw(st.one_of(st.none(), column, st.just(-1)))
    return (".csv" if csv_format else ".prn", "\n".join(lines) + "\n",
            ", ".join(terms), response)


class TestIngestFuzz:
    """Random tables and recipes through the two commands that read them:
    exit 0 or 2, never a traceback."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(inputs=ingest_inputs(), supgain=st.booleans())
    # A fourth moment that underflows to zero.
    @example(inputs=(".csv", "2, -776.3119913799263, -1.9799803979776138e-126\n",
                     "product(1, 2)", None), supgain=True)
    # An all-zero table: a zero second moment.
    @example(inputs=(".prn", "0 0\n0 0\n", "column(0), column(1)", None), supgain=True)
    @example(inputs=(".prn", "0 0\n0 0\n", "column(0), column(1)", None), supgain=False)
    def test_exit_code_and_no_traceback(self, inputs, supgain):
        suffix, text, recipe, response = inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"rows{suffix}"
            path.write_text(text)
            args = ["supgain" if supgain else "ingest-check", "--data", str(path),
                    "--recipe", recipe]
            if response is not None and not supgain:
                args += ["--response-col", str(response)]
            res = CliRunner().invoke(main, args)
        # supgain may also end in the documented numerical failure (exit 3).
        assert res.exit_code in ((0, 2, 3) if supgain else (0, 2)), (
            args, text, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), (
            args, text, res.output)
        assert "Traceback" not in res.output


class TestInProcessInvocations:
    def test_output_streams_are_released(self, runner, tmp_path):
        # One stdout and one stderr command per round; every output stream
        # CliRunner hands the command must be freed once it returns.
        def rounds(n):
            for _ in range(n):
                assert run(runner, "supgain", "--model", "1A", "--criteria",
                           "widrow_trace").exit_code == 0
                assert run(runner, "ingest-check", "--data", str(tmp_path / "no.prn"),
                           "--recipe", "column(0)").exit_code == 2

        def live_wrappers():
            gc.collect()
            return sum(type(obj).__name__ == "_NamedTextIOWrapper"
                       for obj in gc.get_objects())

        rounds(1)
        before = live_wrappers()
        rounds(20)
        assert live_wrappers() <= before


class TestReport:
    def test_skip_simulation_tables(self, runner, tmp_path):
        out = tmp_path / "reports"
        res = run(runner, "report", "--out-dir", str(out), "--skip-simulation")
        assert res.exit_code == 0
        emitted = res.output.strip().splitlines()
        assert emitted == [str(out / "table3.csv"), str(out / "table4.csv")]

        t3 = csv_rows((out / "table3.csv").read_text())
        cor2 = [float(v) for v in t3["corollary2"]]
        assert cor2 == pytest.approx([0.5, 2 / 13, 0.4, 1 / 3, 0.0716],
                                     abs=1e-3)
        assert "theorem1_classification" not in t3

        t4 = csv_rows((out / "table4.csv").read_text())
        assert [float(v) for v in t4["gain"]] == pytest.approx(
            [0.4999, 0.1537, 0.3999, 0.3332], abs=1e-12)
        assert t4["corollary2"][3] == "Inf"
        assert t4["zhu_criterion"][3] == "Inf"
        assert "simulation" not in t4
        assert "tolerance-limited" in t4["flags"][3]

    def test_strict_skip_simulation_tables(self, runner, tmp_path):
        relaxed, strict = tmp_path / "relaxed", tmp_path / "strict"
        assert run(runner, "report", "--out-dir", str(relaxed),
                   "--skip-simulation").exit_code == 0
        res = run(runner, "report", "--out-dir", str(strict), "--skip-simulation",
                  "--mode", "strict")
        assert res.exit_code == 0
        assert res.output.strip().splitlines() == [
            str(strict / "table3.csv"), str(strict / "table4.csv")]

        t3, t3_relaxed = (csv_rows((d / "table3.csv").read_text())
                          for d in (strict, relaxed))
        assert [t3["theorem1"][3], t3["corollary2"][3]] == ["0.0", "0.0"]
        for row in t3:
            if row != "notes":
                for col in (0, 1, 2, 4):
                    assert t3[row][col] == t3_relaxed[row][col], (row, col)

        t4, t4_relaxed = (csv_rows((d / "table4.csv").read_text())
                          for d in (strict, relaxed))
        for row in t4:
            if row != "notes":
                assert t4[row][:3] == t4_relaxed[row][:3], row
                assert t4[row][3] == "-", row
        assert t4["notes"][3] == "gain: sup gain 0.0 leaves no positive working gain"

    def test_table3_notes_row(self, runner, tmp_path):
        out = tmp_path / "reports"
        assert run(runner, "report", "--out-dir", str(out),
                   "--skip-simulation").exit_code == 0
        rows = list(csv.reader(io.StringIO((out / "table3.csv").read_text())))
        header, notes = rows[0], rows[-1]
        assert notes[0] == "notes" and len(notes) == len(header)
        assert float(dict(zip(header, rows[5]))["1D"]) == 0.0   # zhu_criterion
        d1 = dict(zip(header, notes))["1D"]
        assert "theorem1: tolerance-limited" in d1
        assert "corollary2: tolerance-limited" in d1
        assert "zhu_criterion: second moment is singular" in d1
        assert dict(zip(header, notes))["1A"] == ""

    def test_unwritable_out_dir_is_input_error(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        res = run(runner, "report", "--out-dir", str(blocker / "reports"),
                  "--skip-simulation")
        assert res.exit_code == 2
        assert res.output.startswith("error: ")

    def test_version(self, runner):
        res = run(runner, "--version")
        assert res.exit_code == 0
        assert "0.1.0" in res.output
