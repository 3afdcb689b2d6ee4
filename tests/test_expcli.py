"""Harness: clustering, SVG, config round-trip, pipeline, CLI."""
import filecmp
import json
import math
import os

import numpy as np
import pytest

from sgdsmooth import (
    NoiseKernel,
    RngStream,
    SpikyParams,
    Stage,
    StepSchedule,
    make_quadratic,
    make_spiky,
    sgd_run,
)
from sgdsmooth.expcli import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    KernelSpec,
    ObjectiveSpec,
    StageSpec,
    TheoremSpec,
    calibrate_noise,
    cluster_centers,
    cluster_count,
    cluster_labels,
    default_window_candidates,
    ensemble,
    figure3,
    run_lockstep_ensemble,
    smoothing_curve,
    svg_histogram_string,
)
from sgdsmooth.expcli.cli import main
from sgdsmooth.expcli.pipeline import draw_inits, write_curve_csv
from sgdsmooth.optimizer import read_trajectory_csv
from sgdsmooth.smoothing import smoothed_value_closed

from conftest import local_minima


def _small_config(**overrides):
    base = dict(
        stages=(StageSpec(0.05, 40, KernelSpec("uniform-ball", 1.0)),),
        n_trials=6,
        seed=777,
        histogram_bins=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCluster:
    def test_identical_points_single_cluster(self):
        assert cluster_count([1.0, 1.0, 1.0], 0.1) == 1

    def test_two_point_threshold(self):
        assert cluster_count([0.0, 1.0], 0.5) == 2
        assert cluster_count([0.0, 1.0], 1.5) == 1

    def test_chain_merging(self):
        # single linkage: a chain of close points is one cluster even
        # though the endpoints are far apart
        pts = [0.0, 0.4, 0.8, 1.2]
        assert cluster_count(pts, 0.5) == 1

    def test_order_independence(self):
        gen = np.random.Generator(np.random.Philox(key=[81, 0]))
        pts = gen.uniform(-3, 3, size=30)
        perm = gen.permutation(30)
        assert cluster_count(pts, 0.3) == cluster_count(pts[perm], 0.3)

    def test_centers_shape(self):
        centers = cluster_centers([0.0, 0.1, 5.0], 0.5)
        assert centers.shape == (2, 1)
        assert centers[0][0] == pytest.approx(0.05)

    def test_empty_input(self):
        assert cluster_count([], 0.5) == 0
        assert cluster_labels([], 0.5).size == 0

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            cluster_count([1.0], 0.0)

    def test_gd_finals_match_basin_oracle(self, spiky_default):
        cfg = _small_config(
            stages=(StageSpec(0.005, 20_000, KernelSpec("zero", 0.0)),),
            n_trials=100,
            seed=20240,
        )
        _, report = ensemble(cfg, persist=False)
        finals = report.finals_x[:, 0]
        minima = local_minima(SpikyParams(), -6.0, 6.0)
        occupied = {int(np.argmin(np.abs(minima - f))) for f in finals}
        assert cluster_count(finals, 0.05) == len(occupied)


class TestSvg:
    def test_empty_values_axes_only(self):
        svg = svg_histogram_string([], 10)
        assert "<rect" in svg  # background only
        assert svg.count("#4878cf") == 0
        assert svg.count("<line") == 2

    def test_single_value_full_height_bar(self):
        svg = svg_histogram_string([1.0], 5)
        bars = [ln for ln in svg.splitlines() if "#4878cf" in ln]
        assert len(bars) == 1
        assert 'height="310.000"' in bars[0]  # full plot height

    def test_deterministic_bytes(self):
        vals = np.linspace(-1, 1, 57)
        assert svg_histogram_string(vals, 9) == svg_histogram_string(vals.copy(), 9)

    def test_three_decimal_formatting(self):
        svg = svg_histogram_string([0.123456, 0.2], 2)
        assert "0.123456" not in svg

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            svg_histogram_string([1.0], 0)


class TestConfig:
    def test_round_trip_default(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_round_trip_full(self):
        cfg = ExperimentConfig(
            objective=ObjectiveSpec(kind="quadratic", dimension=2, center=(1.0, -1.0)),
            stages=(
                StageSpec(0.1, 100, KernelSpec("uniform-cube", 0.5)),
                StageSpec(0.05, 200, KernelSpec("uniform-ball", 0.25)),
            ),
            n_trials=17,
            init_box=(-2.0, 2.0),
            seed=99,
            out_dir="artifacts",
            cert_grid=GridSpec(-1.0, 1.0, 11),
            confidence=0.95,
            cert_samples=1234,
            noise_levels=(0.3, 0.15, 0.05),
            cluster_tol=0.1,
            histogram_bins=13,
            theorem=TheoremSpec(0.9, 0.01, 2.0, 1.5, 4.0, 300),
        )
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_load_from_file(self, tmp_path):
        cfg = _small_config()
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert ExperimentConfig.load(path) == cfg

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads("{not json")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.loads(json.dumps({"stages": [{"steps": 5}]}))
        with pytest.raises(ConfigError):
            ExperimentConfig(n_trials=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(confidence=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(init_box=(1.0, 1.0))

    def test_build_helpers(self):
        cfg = _small_config()
        obj = cfg.build_objective()
        sched = cfg.build_schedule()
        assert obj.dimension == 1
        assert sched.total_steps == 40


class TestLockstep:
    def test_matches_sequential_runner_bitwise(self, spiky_default):
        cfg = _small_config(n_trials=4)
        sched = cfg.build_schedule()
        x0s = draw_inits(4, 1, cfg.init_box, cfg.seed)
        result = run_lockstep_ensemble(spiky_default, sched, x0s, cfg.seed)
        for i in range(4):
            traj = sgd_run(spiky_default, sched, x0s[i], RngStream(cfg.seed, 1000 + i))
            assert np.array_equal(result.x_hist[:, i, :], traj.xs)
            assert np.array_equal(result.y_hist[:, i, :], traj.ys)

    def test_materialized_trajectory_round_trip(self, tmp_path, spiky_default):
        cfg = _small_config(n_trials=2)
        sched = cfg.build_schedule()
        x0s = draw_inits(2, 1, cfg.init_box, cfg.seed)
        result = run_lockstep_ensemble(spiky_default, sched, x0s, cfg.seed)
        traj = result.trajectory(spiky_default, 1)
        seq = sgd_run(spiky_default, sched, x0s[1], RngStream(cfg.seed, 1001))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        traj.write_csv(a)
        seq.write_csv(b)
        assert a.read_bytes() == b.read_bytes()
        # d = 2: the derived f and norm columns must match to the last bit too
        spiky_2d = make_spiky(SpikyParams(dimension=2))
        sched_2d = StepSchedule((Stage(0.05, 300, NoiseKernel("uniform-ball", 1.0, 2)),))
        x0s_2d = draw_inits(2, 2, cfg.init_box, cfg.seed)
        result = run_lockstep_ensemble(spiky_2d, sched_2d, x0s_2d, cfg.seed)
        result.trajectory(spiky_2d, 1).write_csv(a)
        sgd_run(spiky_2d, sched_2d, x0s_2d[1], RngStream(cfg.seed, 1001)).write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_diverged_trials_freeze(self):
        from sgdsmooth import make_quadratic
        from sgdsmooth.optimizer import Stage, StepSchedule

        obj = make_quadratic(1)
        sched = StepSchedule((Stage(3.0, 100, NoiseKernel("zero", 0.0, 1)),))
        x0s = np.array([[1.0], [0.0]])
        result = run_lockstep_ensemble(obj, sched, x0s, 1)
        assert bool(result.diverged[0]) and not bool(result.diverged[1])
        assert np.all(result.x_hist[-1, 1, :] == 0.0)

    def test_final_iterate_divergence_flagged_by_both_engines(self):
        # on f = x^2/2 with eta = 2.1, |x_t| = 1.1**t first passes the 1e6
        # cutoff at the final iterate, t = 145
        obj = make_quadratic(1)
        sched = StepSchedule((Stage(2.1, 145, NoiseKernel("zero", 0.0, 1)),))
        traj = sgd_run(obj, sched, [1.0], RngStream(0))
        result = run_lockstep_ensemble(obj, sched, np.array([[1.0]]), 0)
        assert np.all(np.abs(result.x_hist[:-1]) <= 1e6)
        assert abs(result.x_hist[-1, 0, 0]) > 1e6
        assert traj.diverged
        assert bool(result.diverged[0])
        assert len(traj) == 146
        # a mid-run divergence ends the record at the first offending row:
        # with eta = 3, |x_t| = 2**t first passes the cutoff at t = 20
        sched = StepSchedule((Stage(3.0, 100, NoiseKernel("zero", 0.0, 1)),))
        result = run_lockstep_ensemble(obj, sched, np.array([[1.0]]), 0)
        traj = result.trajectory(obj, 0)
        assert len(traj) == 21 and abs(traj.xs[-1, 0]) > 1e6 >= abs(traj.xs[-2, 0])


class TestEnsemble:
    def test_persisted_artifacts(self, tmp_path):
        cfg = _small_config(out_dir=str(tmp_path / "run"))
        _, report = ensemble(cfg)
        out = tmp_path / "run"
        assert (out / "summary.json").exists()
        assert (out / "finals.svg").exists()
        trials = sorted(p.name for p in out.glob("trial_*.csv"))
        assert len(trials) == cfg.n_trials
        cols = read_trajectory_csv(out / "trial_0.csv")
        assert len(cols["t"]) == 41
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_trials"] == cfg.n_trials

    def test_success_fraction_with_radius(self):
        cfg = _small_config()
        _, report = ensemble(cfg, stay_radius2=1e9, persist=False)
        assert report.success_fraction == 1.0
        assert 0 <= report.cluster_count <= cfg.n_trials


class TestCalibration:
    def test_window_candidate_ladder(self):
        cands = default_window_candidates(SpikyParams(), 0.01)
        base = math.pi / 10 / (4 * 0.01)
        assert cands == pytest.approx([base, 2 * base, 3 * base, 4 * base, 5 * base])

    def test_picks_smallest_passing_radius(self, spiky_default):
        grid = np.linspace(-2, 2, 8)
        result = calibrate_noise(
            spiky_default, 0.01, c_min=0.2, grid=grid,
            r_candidates=default_window_candidates(SpikyParams(), 0.01),
            n=2_000_000, seed=123,
        )
        assert result.certified_c >= 0.2
        assert result.radius == result.tried[-1]
        # every earlier candidate failed
        for rep in result.reports[:-1]:
            assert rep.certified_c < 0.2

    def test_raises_when_no_candidate_certifies(self, spiky_default):
        with pytest.raises(ValueError):
            calibrate_noise(
                spiky_default, 0.01, c_min=100.0, grid=np.linspace(-2, 2, 4),
                r_candidates=[1.0, 2.0], n=1000, seed=1,
            )


class TestSmoothingCurve:
    def test_columns_and_csv(self, tmp_path):
        ys = np.linspace(-1, 1, 9)
        cols = smoothing_curve(SpikyParams(), 0.05, 1.0, ys, n=2000, seed=5)
        assert set(cols) == {"y", "f", "g_mc", "g_closed", "ci_halfwidth"}
        path = tmp_path / "curve.csv"
        write_curve_csv(path, cols)
        back = read_trajectory_csv(path)  # generic csv reader
        assert np.array_equal(back["g_closed"], cols["g_closed"])


def _figure3_config(out_dir=None, **overrides):
    base = dict(
        stages=(
            StageSpec(0.2, 60, KernelSpec("uniform-ball", 3.1416)),
            StageSpec(0.1, 60, KernelSpec("uniform-ball", 3.1)),
        ),
        noise_levels=(3.1416, 3.1, 2.0),
        n_trials=8,
        seed=101,
        out_dir=out_dir,
        histogram_bins=6,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestFigure3:
    def test_requires_levels_and_stages(self):
        with pytest.raises(ValueError):
            figure3(_figure3_config(noise_levels=(0.3,)), persist=False)
        with pytest.raises(ValueError):
            figure3(
                _figure3_config(
                    stages=(StageSpec(0.1, 10, KernelSpec("uniform-ball", 1.0)),)
                ),
                persist=False,
            )

    def test_full_tree_deterministic(self, tmp_path):
        dirs = []
        for name in ("one", "two"):
            out = tmp_path / name
            figure3(_figure3_config(out_dir=str(out)))
            dirs.append(out)
        files = sorted(
            os.path.relpath(os.path.join(r, f), dirs[0])
            for r, _, fs in os.walk(dirs[0])
            for f in fs
        )
        assert files
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
        assert mismatch == [] and errors == []

    def test_zero_noise_panel_reuses_gd_output(self, tmp_path):
        cfg = _figure3_config(out_dir=str(tmp_path / "fig"))
        figure3(cfg)
        from dataclasses import replace

        gd_cfg = replace(
            cfg,
            stages=(StageSpec(0.2, 60, KernelSpec("uniform-ball", 0.0)),),
            out_dir=str(tmp_path / "gd"),
        )
        ensemble(gd_cfg)
        panel = tmp_path / "fig" / "row2_level0"
        names = sorted(p.name for p in panel.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            panel, tmp_path / "gd", names, shallow=False
        )
        assert mismatch == [] and errors == []

    def test_row1_mc_inside_ci_everywhere(self, tmp_path):
        cfg = _figure3_config(out_dir=str(tmp_path / "fig"))
        figure3(cfg)
        params = SpikyParams()
        for j, r in enumerate(cfg.noise_levels):
            cols = read_trajectory_csv(tmp_path / "fig" / f"row1_level{j}.csv")
            for y, g_mc, ci in zip(cols["y"], cols["g_mc"], cols["ci_halfwidth"]):
                closed = smoothed_value_closed(params, r, cfg.stages[0].eta, [y])
                assert abs(g_mc - closed) <= ci

    def test_row3_reports_per_stage(self):
        report = figure3(_figure3_config(), persist=False)
        assert len(report.row3_reports) == 2
        assert len(report.row3_medians) == 2
        assert len(report.row2_reports) == len(report.noise_levels) + 1


class TestCli:
    def test_bounds_exit_codes(self, capsys, tmp_path):
        cfg = _small_config(theorem=TheoremSpec(1.0, 0.1, 1.0, 1.0, 1.0, 10))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.19" in out and '"lambda"' in out

    def test_bounds_without_theorem_section(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(_small_config().dumps())
        assert main(["bounds", "--config", str(path)]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1

    def test_run_writes_trajectory(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(_small_config().dumps())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "trial_0.csv").exists()

    def test_run_divergence_exit_code(self, tmp_path, capsys):
        cfg = _small_config(
            objective=ObjectiveSpec(kind="quadratic", dimension=1, center=(0.0,)),
            stages=(StageSpec(3.0, 200, KernelSpec("zero", 0.0)),),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["run", "--config", str(path)]) == 2

    def test_ensemble_seed_and_trials_flags(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(_small_config().dumps())
        assert main(["ensemble", "--config", str(path), "--trials", "3"]) == 0
        assert '"n_trials"' not in capsys.readouterr().out  # aligned text, not json

    def test_smooth_writes_csv(self, tmp_path, capsys):
        cfg = _small_config(cert_grid=GridSpec(-1.0, 1.0, 7))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["smooth", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "smooth.csv").exists()

    def test_certify_emits_summary_line(self, tmp_path, capsys):
        cfg = _small_config(
            cert_grid=GridSpec(-2.0, 2.0, 6), cert_samples=5000,
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
        lines = (tmp_path / "c" / "certify.csv").read_text().splitlines()
        assert lines[0].startswith("x_0,")
        assert lines[-1].startswith("# certified_c,")

    def test_figure3_subcommand(self, tmp_path, capsys):
        cfg = _figure3_config(n_trials=4)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["figure3", "--config", str(path), "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "row2_level0" / "summary.json").exists()
