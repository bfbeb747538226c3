"""Tests for the report builders' use of the Monte Carlo engine."""

import csv

from lmsbound import presets, report, simulate
from lmsbound.bounds import CriterionKind
from lmsbound.simulate import SimConfig


class TestSharedSimulations:
    def test_full_report_runs_one_batch_per_gaussian_model(self, tmp_path, monkeypatch):
        calls = []
        run_lms = report.run_lms

        def counting(config, gains=None):
            calls.append(config.model)
            return run_lms(config, gains)
        monkeypatch.setattr(report, "run_lms", counting)
        k_max, replications = 300, 20
        _, path4 = report.write_benchmark_reports(
            tmp_path, k_max=k_max, replications=replications, simulate=True)
        gaussian = [name for name in presets.BENCHMARK_NAMES
                    if presets.benchmark_model(name).sampling_cov is not None]
        assert len(calls) == len(gaussian) == 4

        with open(path4, newline="") as f:
            rows = {row[0]: row[1:] for row in csv.reader(f)}
        seed = presets.DEFAULT_MASTER_SEED
        for name, gain, mse in zip(rows["row"], rows["gain"], rows["simulation"]):
            model = presets.benchmark_model(name)
            alone = simulate.run_lms(SimConfig(
                model=model, theta_star=presets.protocol_theta_star(model.dim),
                gain=float(gain), sigma_eps=presets.SIGMA_EPS, k_max=k_max,
                replications=replications, master_seed=seed,
                init=presets.protocol_init(seed, model.dim)))
            assert float(mse) == alone.terminal_mse


class TestEachModelSolvedOnce:
    def test_report_builds_each_model_and_searches_each_sup_once(
            self, tmp_path, monkeypatch):
        counts = {"benchmark_model": 0, "sup_gain": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(presets, "benchmark_model",
                            counting("benchmark_model", presets.benchmark_model))
        monkeypatch.setattr(report, "sup_gain", counting("sup_gain", report.sup_gain))
        report.write_benchmark_reports(tmp_path, simulate=False)
        # Five criteria on five models, less theorem1 on the printed-moments one.
        assert counts == {"benchmark_model": 5, "sup_gain": 24}


def _inputs(names):
    models = {name: presets.benchmark_model(name) for name in names}
    return models, report.supgain_results(
        names, (CriterionKind.COROLLARY2,), models=models)


class TestErrorboundTableNeverSimulates:
    @staticmethod
    def _forbid_runs(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the error-bound table must not simulate")
        monkeypatch.setattr(report, "run_lms", fail)

    def test_no_simulation_row_without_runs(self, monkeypatch):
        self._forbid_runs(monkeypatch)
        models, results = _inputs(("1A", "1B"))
        table = report.build_errorbound_table(
            models=models, results=results, names=("1A", "1B"))
        assert [label for label, _ in table.rows][-1] == "flags"
        assert "simulation" not in [label for label, _ in table.rows]

    def test_simulation_row_shows_the_given_run(self, monkeypatch):
        models, results = _inputs(("1A", "1B"))
        model = models["1B"]
        seed = presets.DEFAULT_MASTER_SEED
        gain = report.build_errorbound_table(
            names=("1B",), models=models, results=results).row("gain")[0].value
        sim = simulate.run_lms(SimConfig(
            model=model, theta_star=presets.protocol_theta_star(model.dim),
            gain=gain, sigma_eps=presets.SIGMA_EPS, k_max=40, replications=6,
            master_seed=seed, init=presets.protocol_init(seed, model.dim)))
        self._forbid_runs(monkeypatch)
        table = report.build_errorbound_table(
            names=("1A", "1B"), models=models, results=results,
            simulations={"1B": sim})
        cells = table.row("simulation")
        assert cells[0].value is None and cells[0].text == ""
        assert cells[1].value == sim.terminal_mse
