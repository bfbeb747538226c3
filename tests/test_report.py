"""Tests for the report builders' use of the Monte Carlo engine."""

import csv

from lmsbound import presets, report, simulate
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
