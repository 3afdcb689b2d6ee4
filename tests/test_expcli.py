"""Harness: clustering, SVG, config round-trip, pipeline, CLI."""
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    cluster_count,
    cluster_labels,
    default_window_candidates,
    ensemble,
    figure3,
    run_lockstep_ensemble,
    smoothing_curve,
    summarize_ensemble,
    svg_histogram_string,
)
from sgdsmooth import optimizer as optimizer_module
from sgdsmooth.expcli import cli as cli_module
from sgdsmooth.expcli import cluster as cluster_module
from sgdsmooth.expcli import pipeline as pipeline_module
from sgdsmooth.expcli.cli import main
from sgdsmooth.expcli.pipeline import draw_inits
from sgdsmooth.optimizer import _BLOCK, _NOISE_ROWS, lockstep_run, write_csv_columns
from sgdsmooth.smoothing import smoothed_value_closed

from conftest import local_minima, read_csv_columns, shadow_rows


def _small_config(**overrides):
    base = dict(
        stages=(StageSpec(0.05, 40, KernelSpec("uniform-ball", 1.0)),),
        n_trials=6,
        seed=777,
        histogram_bins=8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _union_find_labels_reference(points: np.ndarray, tol: float) -> np.ndarray:
    """The pairwise union-find that `cluster_labels` replaced: O(n^2) norms."""
    n = points.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    roots = np.array([find(i) for i in range(n)])
    # relabel to consecutive ids in order of first appearance
    labels = np.empty(n, dtype=int)
    seen: dict[int, int] = {}
    for i, r in enumerate(roots):
        if r not in seen:
            seen[r] = len(seen)
        labels[i] = seen[r]
    return labels


def _reference_labels(points: np.ndarray, tol: float) -> np.ndarray:
    # a non-finite row makes the reference warn on inf - inf
    with np.errstate(invalid="ignore", over="ignore"):
        return _union_find_labels_reference(points, tol)


def _cluster_case(name: str, d: int):
    """(points, tol) of one named equivalence case in dimension d."""
    gen = np.random.Generator(np.random.Philox(key=[82, 10 * d + CLUSTER_CASES.index(name)]))
    if name == "random":
        return gen.uniform(-3, 3, size=(80, d)), {1: 0.05, 2: 0.4, 3: 0.8}[d]
    if name == "duplicates":
        pool = gen.uniform(-2, 2, size=(12, d))
        return pool[gen.integers(0, 12, size=60)], 0.3
    if name == "chain-at-tol":
        # steps of exactly tol join; one step 2**-30 longer splits.  In
        # d > 1 the step is diagonal, a scaled Pythagorean triple, so every
        # distance is exact whatever the summation order.
        step, tol = {1: ([0.25], 0.25), 2: ([0.75, 1.0], 1.25), 3: ([0.25, 0.5, 0.5], 0.75)}[d]
        pts = np.arange(12)[:, None] * np.array(step)
        pts[6:, 0] += 2.0**-30
        return pts[gen.permutation(12)], tol
    if name == "one-cluster":
        return gen.uniform(0, 1, size=(50, d)), 0.5
    if name == "non-finite":
        pts = gen.uniform(-1, 1, size=(40, d))
        pts[[3, 7, 8, 20, 31], -1] = [np.nan, np.inf, -np.inf, np.inf, np.nan]
        pts[21] = pts[20]  # two equal +inf rows are still apart
        return pts, 0.3
    if name == "wide-window":
        # every pair is a candidate on coordinate 0
        pts = gen.uniform(0, 3, size=(150, d))
        pts[:, 0] = gen.uniform(0, 0.01, size=150)
        return pts, {1: 0.2, 2: 0.03, 3: 0.2}[d]
    raise KeyError(name)


CLUSTER_CASES = ["random", "duplicates", "chain-at-tol", "one-cluster", "non-finite", "wide-window"]


class TestCluster:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", CLUSTER_CASES)
    def test_matches_union_find_reference(self, name, d):
        pts, tol = _cluster_case(name, d)
        expected = _reference_labels(pts, tol)
        labels = cluster_labels(pts, tol)
        assert labels.dtype == expected.dtype
        assert np.array_equal(labels, expected)
        k = int(expected.max()) + 1
        assert cluster_count(pts, tol) == k
        if name == "one-cluster":
            assert k == 1
        elif not (name == "wide-window" and d == 1):
            assert 1 < k < len(pts)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name", CLUSTER_CASES)
    def test_small_pair_blocks_match_reference(self, monkeypatch, name, d):
        # blocks of 5 pairs split most rows' candidates across blocks
        monkeypatch.setattr(cluster_module, "_PAIR_BLOCK", 5)
        pts, tol = _cluster_case(name, d)
        assert np.array_equal(cluster_labels(pts, tol), _reference_labels(pts, tol))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda d: st.lists(
            st.lists(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf]),
                     min_size=d, max_size=d),
            min_size=1, max_size=25,
        )),
        st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_grid_points_match_reference(self, rows, tol):
        # grid distances land exactly on tol, with duplicates and non-finite rows
        pts = np.array(rows)
        assert np.array_equal(cluster_labels(pts, tol), _reference_labels(pts, tol))

    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_and_far_rows_raise_no_warning(self, d):
        pts = np.zeros((7, d))
        pts[:, -1] = [np.nan, np.inf, -np.inf, np.inf, 1e308, -1e308, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels = cluster_labels(pts, 0.5)
            assert cluster_count(pts, 0.5) == 7
        assert np.array_equal(labels, _reference_labels(pts, 0.5))

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

    def test_empty_input(self):
        assert cluster_count([], 0.5) == 0
        assert cluster_labels([], 0.5).size == 0

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            cluster_count([1.0], 0.0)

    def test_nan_tolerance(self):
        # NaN is not <= 0 either, and every point would be its own cluster
        with pytest.raises(ValueError, match="tol must be positive"):
            cluster_count(np.array([0.0, 0.01, 0.02]), math.nan)

    def test_gd_finals_match_basin_oracle(self, spiky_default):
        cfg = _small_config(
            stages=(StageSpec(0.005, 20_000, KernelSpec("zero", 0.0)),),
            n_trials=100,
            seed=20240,
        )
        result, report = ensemble(cfg)
        finals = result.finals_x[:, 0]
        minima = local_minima(SpikyParams(), -6.0, 6.0)
        occupied = {int(np.argmin(np.abs(minima - f))) for f in finals}
        assert cluster_count(finals, 0.05) == report.cluster_count == len(occupied)


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


# every field but `objective.kind` off its default: a spiky objective ignores
# `center`, so deleting `dimension` alone leaves the config valid
_FULL = ExperimentConfig(
    objective=ObjectiveSpec(kind="spiky", dimension=2, quad=2.0, amp=0.5, freq=5.0, center=(0.5, -0.5)),
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
_SPEC_LEVELS = (
    ((), ExperimentConfig),
    (("objective",), ObjectiveSpec),
    (("stages", 0), StageSpec),
    (("stages", 0, "kernel"), KernelSpec),
    (("cert_grid",), GridSpec),
    (("theorem",), TheoremSpec),
)
_FIELD_CASES = [(path, f) for path, spec in _SPEC_LEVELS for f in fields(spec)]


def _number_leaves():
    """(path, leaf, value, kind) for every float and int leaf of the schema:
    NaN, inf, -inf and true for a float, 2.5 and true for an int, with the
    kind of value the message asks for.  `leaf` is (field name,) or, for a
    tuple of floats, (field name, 0), its first element."""
    cases = []
    for path, f in _FIELD_CASES:
        tp = get_type_hints(dict(_SPEC_LEVELS)[path])[f.name]
        leaf = (f.name,)
        if get_origin(tp) is tuple:
            tp, leaf = get_args(tp)[0], (f.name, 0)
        if tp is float:
            cases += [(path, leaf, bad, "a finite number") for bad in (math.nan, math.inf, -math.inf, True)]
        elif tp is int:
            cases += [(path, leaf, bad, "an integer") for bad in (2.5, True)]
    return cases


def _where(path, leaf) -> str:
    """The walker's name for `leaf` of the spec at `path`: stages[0].eta."""
    steps = [f"[{s}]" if isinstance(s, int) else f".{s}" for s in path + leaf]
    return "".join(steps).lstrip(".")


_NUMBER_CASES = _number_leaves()


def _replace_at(node, path, name, value):
    """`node` with field `name` of the spec found at `path` set to `value`."""
    if not path:
        return replace(node, **{name: value})
    head, *rest = path
    if isinstance(head, int):  # a tuple element
        return node[:head] + (_replace_at(node[head], rest, name, value),) + node[head + 1 :]
    return replace(node, **{head: _replace_at(getattr(node, head), rest, name, value)})


def _spec_node(node, path):
    """The spec found at `path` inside the config `node`."""
    for step in path:
        node = node[step] if isinstance(step, int) else getattr(node, step)
    return node


def _json_node(data, path):
    """The JSON object at `path` inside the parsed document `data`."""
    for step in path:
        data = data[step]
    return data


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
        with pytest.raises(ConfigError):
            ExperimentConfig(noise_levels=("x", 1, 2))

    @pytest.mark.parametrize(
        "path, where",
        [
            ((), "config"),
            (("objective",), "objective"),
            (("stages", 0), "stages[0]"),
            (("stages", 0, "kernel"), "stages[0].kernel"),
            (("cert_grid",), "cert_grid"),
            (("theorem",), "theorem"),
        ],
        ids=["top", "objective", "stage", "kernel", "cert-grid", "theorem"],
    )
    def test_unknown_key_named(self, path, where):
        data = _small_config(theorem=TheoremSpec(0.9, 0.01, 2.0, 1.5, 4.0, 300)).to_json_dict()
        node = data
        for step in path:
            node = node[step]
        node["typo_key"] = 1
        with pytest.raises(ConfigError, match=rf"unknown key 'typo_key' in {re.escape(where)}$"):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize(
        "path, field", _FIELD_CASES,
        ids=[".".join(map(str, path + (f.name,))) for path, f in _FIELD_CASES],
    )
    def test_missing_key_takes_field_default(self, path, field):
        data = json.loads(_FULL.dumps())
        del _json_node(data, path)[field.name]
        if field.default is MISSING:
            with pytest.raises(ConfigError, match=f"missing key '{field.name}'"):
                ExperimentConfig.from_json_dict(data)
        else:
            expected = _replace_at(_FULL, path, field.name, field.default)
            assert ExperimentConfig.from_json_dict(data) == expected

    @pytest.mark.parametrize(
        "path, value, where",
        [
            (("stages", 0, "steps"), 2.5, "stages[0].steps"),
            (("theorem", "T2"), 1e30, "theorem.T2"),
            (("seed",), -(2**63) - 1, "seed"),
        ],
        ids=["steps-fraction", "T2-beyond-int64", "seed-below-int64"],
    )
    def test_integer_error_names_path(self, path, value, where):
        data = json.loads(_FULL.dumps())
        _json_node(data, path[:-1])[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)} must "):
            ExperimentConfig.from_json_dict(data)

    def test_readme_config(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A minimal config:\s*```json\n(.*?)```", readme, re.S).group(1)
        cfg = ExperimentConfig.loads(block)
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

    def test_numeric_fields_coerced(self):
        data = _small_config(noise_levels=(1.0, 2.0, 3.0)).to_json_dict()
        data.update(
            noise_levels=[1, 2, 3],
            cert_grid={"lo": -1, "hi": 1, "count": 5.0},
            init_box=["-1", 2],
        )
        cfg = ExperimentConfig.from_json_dict(data)
        assert cfg.init_box == (-1.0, 2.0)
        assert cfg.noise_levels == (1.0, 2.0, 3.0)
        assert all(type(r) is float for r in cfg.noise_levels)
        assert cfg.cert_grid == GridSpec(-1.0, 1.0, 5)
        assert type(cfg.cert_grid.lo) is float and type(cfg.cert_grid.count) is int

    def test_non_finite_numbers_rejected_in_python(self):
        # the one schema walk checks a config built in Python, so a document
        # and the config built from its values fail with one message, which
        # names the value by its path
        ball = KernelSpec("uniform-ball", 1.0)
        stage = StageSpec(0.1, 5, ball)
        cases = [
            ({"init_box": (math.nan, 1.0)}, "init_box[0] must be a finite number, got nan"),
            ({"init_box": (-1.0, math.inf)}, "init_box[1] must be a finite number, got inf"),
            ({"cert_grid": GridSpec(lo=-math.inf)}, "cert_grid.lo must be a finite number, got -inf"),
            ({"cert_grid": GridSpec(hi=math.nan)}, "cert_grid.hi must be a finite number, got nan"),
            ({"cluster_tol": math.inf}, "cluster_tol must be a finite number, got inf"),
            ({"noise_levels": (math.inf, 1.0, 1.0)}, "noise_levels[0] must be a finite number, got inf"),
            ({"noise_levels": (1.0, math.nan)}, "noise_levels[1] must be a finite number, got nan"),
            ({"stages": (StageSpec(math.inf, 5, ball),)}, "stages[0].eta must be a finite number, got inf"),
            ({"stages": (StageSpec(math.nan, 5, ball),)}, "stages[0].eta must be a finite number, got nan"),
            ({"stages": (stage, StageSpec(0.1, 5, KernelSpec("uniform-ball", math.inf)))},
             "stages[1].kernel.radius must be a finite number, got inf"),
        ]
        for values, message in cases:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                ExperimentConfig(**values)
            document = json.loads(json.dumps(values, default=asdict))
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                ExperimentConfig.from_json_dict(document)

    @pytest.mark.parametrize(
        "path, leaf, value, kind", _NUMBER_CASES,
        ids=[f"{_where(path, leaf)}={value}" for path, leaf, value, _ in _NUMBER_CASES],
    )
    def test_bad_number_leaf_same_message_both_routes(self, path, leaf, value, kind):
        where = _where(path, leaf)
        message = f"^{re.escape(f'{where} must be {kind}, got {value!r}')}$"
        name, *index = leaf
        if index:  # the first element of a tuple of floats
            field_value = (value,) + getattr(_spec_node(_FULL, path), name)[1:]
        else:
            field_value = value
        with pytest.raises(ConfigError, match=message):
            _replace_at(_FULL, path, name, field_value)
        data = json.loads(_FULL.dumps())
        node = _json_node(data, path + leaf[:-1])
        node[leaf[-1]] = value
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_json_dict(data)

    def test_python_lists_stored_as_tuples(self):
        cfg = ExperimentConfig(
            stages=[StageSpec(0.1, 5, KernelSpec("uniform-ball", 1.0))],
            noise_levels=[1, 2, 3],
        )
        assert type(cfg.stages) is tuple and type(cfg.noise_levels) is tuple
        assert all(type(r) is float for r in cfg.noise_levels)
        assert ExperimentConfig.loads(cfg.dumps()) == cfg

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
        ys = shadow_rows(spiky_default, sched, result.x_hist)
        for i in range(4):
            traj = sgd_run(spiky_default, sched, x0s[i], RngStream(cfg.seed, 1000 + i))
            assert np.array_equal(result.x_hist[:, i, :], traj.xs)
            assert ys[:, i].tobytes() == shadow_rows(spiky_default, sched, traj.xs).tobytes()
            assert result.trajectory(i).omegas.tobytes() == traj.omegas.tobytes()

    def test_materialized_trajectory_round_trip(self, tmp_path, spiky_default):
        cfg = _small_config(n_trials=2)
        sched = cfg.build_schedule()
        x0s = draw_inits(2, 1, cfg.init_box, cfg.seed)
        result = run_lockstep_ensemble(spiky_default, sched, x0s, cfg.seed)
        traj = result.trajectory(1)
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
        result.trajectory(1).write_csv(a)
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
        traj = result.trajectory(0)
        assert len(traj) == 21 and abs(traj.xs[-1, 0]) > 1e6 >= abs(traj.xs[-2, 0])


def _same_bits(expected, column) -> bool:
    """Bitwise equality of a table column with a record array (NaN equals NaN)."""
    expected = np.asarray(expected, dtype=column.dtype)
    return expected.shape == column.shape and expected.tobytes() == column.tobytes()


def _assert_rows_hold_record(rows, traj):
    """One trial's table rows hold the fields of its `trajectory` record,
    bit for bit."""
    assert len(rows) == len(traj)
    stages = traj.schedule.row_stages(0, len(traj))
    expected = {"t": np.arange(len(traj)), "stage": stages, "x": traj.xs, **traj.columns()}
    assert set(expected) == set(rows.dtype.names) - {"trial"}
    for name, values in expected.items():
        assert _same_bits(values, rows[name]), name


# the eta = 2.5 stage expands the quadratic part, so some trials diverge in it
_DIVERGING_STAGES = (
    StageSpec(0.05, 40, KernelSpec("uniform-ball", 1.0)),
    StageSpec(2.5, 30, KernelSpec("uniform-ball", 1.0)),
)


class TestEnsemble:
    def test_persisted_artifacts(self, tmp_path):
        cfg = _small_config(out_dir=str(tmp_path / "run"))
        _, report = ensemble(cfg)
        out = tmp_path / "run"
        assert sorted(p.name for p in out.iterdir()) == ["finals.svg", "summary.json", "trajectories.npy"]
        tab = np.load(out / "trajectories.npy")
        # steps in order, and trials in order within a step
        assert tab["trial"].tolist() == list(range(cfg.n_trials)) * 41
        assert tab["t"].tolist() == np.repeat(np.arange(41), cfg.n_trials).tolist()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_trials"] == cfg.n_trials

    def test_table_rows_end_at_the_record_end(self, tmp_path):
        # on f = x^2/2 with eta = 3, |x_t| = 2**t first passes the cutoff at
        # t = 20, so trial 0 keeps 21 rows; trial 1 sits at the minimum
        obj = make_quadratic(1)
        sched = StepSchedule((Stage(3.0, 100, NoiseKernel("zero", 0.0, 1)),))
        result = run_lockstep_ensemble(obj, sched, np.array([[1.0], [0.0]]), 1, table=tmp_path / "t.npy")
        assert [len(result.trajectory(0)), len(result.trajectory(1))] == [21, 101]
        tab = np.load(tmp_path / "t.npy")
        # both trials' rows 0..20, then trial 1's alone
        assert tab["trial"].tolist() == [0, 1] * 21 + [1] * 80
        assert np.count_nonzero(tab["trial"] == 0) == 21
        assert np.count_nonzero(tab["trial"] == 1) == 101
        assert len(tab) == 122
        for i in range(2):
            _assert_rows_hold_record(tab[tab["trial"] == i], result.trajectory(i))

    # the table takes chunks of whole steps, one step when a step's six
    # rows outnumber the buffer's: with 1 and 4 rows a step spans several
    # flushes, with 16, 30, 43 and 100 rows a chunk is 2, 5, 7 and 16
    # steps, and its rows may span two flushes.  Trial 3's record ends at
    # row 49 of the eta = 2.5 stage's block from row 37: with 30 rows
    # inside that block's third chunk, rows 47-51
    @pytest.mark.parametrize(
        "dimension, table_rows",
        [(d, rows) for rows in (None, 1, 4, 16, 30, 43, 100) for d in (1, 2, 3)],
        ids=[
            f"{d}" if rows is None else f"{d}-rows{rows}"
            for rows in (None, 1, 4, 16, 30, 43, 100) for d in (1, 2, 3)
        ],
    )
    def test_table_round_trips_every_trial(self, tmp_path, monkeypatch, dimension, table_rows):
        if table_rows is not None:
            monkeypatch.setattr(optimizer_module, "_TABLE_ROWS", table_rows)
        obj = make_spiky(SpikyParams(dimension=dimension))
        if dimension == 2:
            obj = replace(obj, target=None)  # the distance column is then all NaN

        def schedule(last):
            # a ball stage (drawn whole for d > 1), a 0-step cube stage, a
            # zero stage, then an eta = 2.5 cube stage, which amplifies |x|
            # by about 1.5 per step and draws the same rows whatever its
            # length
            return StepSchedule((
                Stage(0.05, 30, NoiseKernel("uniform-ball", 1.0, dimension)),
                Stage(0.3, 0, NoiseKernel("uniform-cube", 1.0, dimension)),
                Stage(0.1, 7, NoiseKernel("zero", 0.0, dimension)),
                Stage(2.5, last, NoiseKernel("uniform-cube", 1.0, dimension)),
            ))

        # the trial from 1e5 diverges mid-run, the one from 2e6 at t = 0,
        # and the one from 3e4 first at row T, which the probe finds
        x0s = np.vstack([draw_inits(3, dimension, (-3.0, 3.0), 5), np.full((3, dimension), 1e5)])
        x0s[4, 0], x0s[5] = 2e6, 3e4
        probe = run_lockstep_ensemble(obj, schedule(30), x0s, 5)
        total = len(probe.trajectory(5)) - 1
        sched = schedule(total - 37)
        path = tmp_path / "trajectories.npy"
        result = run_lockstep_ensemble(obj, sched, x0s, 5, table=path)
        records = [result.trajectory(i) for i in range(6)]
        ends = [len(traj) for traj in records]
        assert result.diverged.tolist() == [False] * 3 + [True] * 3
        assert ends[4] == 1 and ends[3] == 50 < ends[5] == total + 1 == sched.total_steps + 1
        tab = np.load(path)
        assert len(tab) == sum(ends)
        assert np.array_equal(np.lexsort((tab["trial"], tab["t"])), np.arange(len(tab)))
        rows = np.sort(tab, order=["trial", "t"])
        for i, traj in enumerate(records):
            _assert_rows_hold_record(rows[rows["trial"] == i], traj)
        assert np.all(np.isnan(tab["dist2"])) == (dimension == 2)
        # a finals-only run streams the same bytes
        finals = run_lockstep_ensemble(obj, sched, x0s, 5, keep_history=False, table=tmp_path / "f.npy")
        assert (tmp_path / "f.npy").read_bytes() == path.read_bytes()
        assert _same_bits(finals.finals_x, result.finals_x)

    def test_long_trials_are_written_in_row_chunks(self, tmp_path):
        # on f = x^2/2, eta = 2 flips the sign of x exactly and eta = 3
        # doubles |x|: the trial from 1 passes the cutoff at t = 50,020 and
        # the one from 0 stays
        obj = make_quadratic(1)
        zero = NoiseKernel("zero", 0.0, 1)
        sched = StepSchedule((Stage(2.0, 50_000, zero), Stage(3.0, 50_000, zero)))
        x0s = np.array([[1.0], [0.0]])
        path = tmp_path / "t.npy"
        stream = lambda: run_lockstep_ensemble(obj, sched, x0s, 1, keep_history=False, table=path)
        stream()  # one-time allocations of a first call are not the run's
        # a finals-only run holds one block and one chunk of table rows;
        # the iterate history alone would be 1.6 MB
        peak = _traced_peak(stream)
        assert peak < 2**20
        tab = np.load(path)
        assert len(tab) == 150_022
        result = run_lockstep_ensemble(obj, sched, x0s, 1)
        records = [result.trajectory(i) for i in range(2)]
        assert [len(traj) for traj in records] == [50_021, 100_001]
        for i, traj in enumerate(records):
            _assert_rows_hold_record(tab[tab["trial"] == i], traj)

    def test_diverged_trials_cluster_as_reference(self):
        # on f = x^2/2 with eta = 3, x_t = (-2)**t * x0 stops past the cutoff
        # at +-2**20, so three finals diverge and one stays at the minimum
        obj = make_quadratic(1)
        sched = StepSchedule((Stage(3.0, 40, NoiseKernel("zero", 0.0, 1)),))
        result = run_lockstep_ensemble(obj, sched, np.array([[1.0], [0.0], [0.5], [-1.0]]), 1)
        report = summarize_ensemble(result, 0.05)
        assert report.diverged_count == 3
        expected = _reference_labels(result.finals_x, 0.05)
        assert report.cluster_count == int(expected.max()) + 1 == 3

    def test_persisted_ensemble_is_finals_only(self, tmp_path, monkeypatch):
        cfg = _small_config(n_trials=12, stages=_DIVERGING_STAGES)
        binned = []
        emit = pipeline_module.emit_svg_histogram

        def recording(values, bins, path, **kwargs):
            binned.append(np.asarray(values))
            return emit(values, bins, path, **kwargs)

        monkeypatch.setattr(pipeline_module, "emit_svg_histogram", recording)
        bare, bare_report = ensemble(cfg)
        kept, kept_report = ensemble(replace(cfg, out_dir=str(tmp_path / "out")))
        # no history, but the starts and streams that replay each trial
        x0s = draw_inits(cfg.n_trials, 1, cfg.init_box, cfg.seed)
        streams = tuple(RngStream(cfg.seed, 1000 + i) for i in range(cfg.n_trials))
        for result in (bare, kept):
            assert result.x_hist is None and result.streams == streams
            assert _same_bits(x0s, result.x0s)
        assert len(np.load(tmp_path / "out" / "trajectories.npy")) > cfg.n_trials
        assert 0 < kept_report.diverged_count < cfg.n_trials
        # the finals histogram bins the trials that did not diverge
        assert len(binned) == 1
        assert binned[0].size == cfg.n_trials - kept_report.diverged_count
        assert np.all(np.isfinite(binned[0]))
        for field in ("finals_x", "diverged"):
            assert _same_bits(getattr(bare, field), getattr(kept, field)), field
        a, b = bare_report.summary_dict(), kept_report.summary_dict()
        assert a.keys() == b.keys()
        assert all(a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]) for k in a)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_finals_only_trials_replay(self, tmp_path, dimension):
        # each trial of a persisted finals-only ensemble, diverged or not, is
        # the sgd_run of it on its stream and its rows in the streamed table
        cfg = _small_config(
            objective=ObjectiveSpec(kind="spiky", dimension=dimension), n_trials=12,
            stages=_DIVERGING_STAGES, out_dir=str(tmp_path / "out"),
        )
        result, _ = ensemble(cfg)
        tab = np.load(tmp_path / "out" / "trajectories.npy")
        x0s = draw_inits(cfg.n_trials, dimension, cfg.init_box, cfg.seed)
        lengths = []
        for i in range(cfg.n_trials):
            traj = result.trajectory(i)
            ref = sgd_run(result.objective, result.schedule, x0s[i], RngStream(cfg.seed, 1000 + i))
            assert _same_bits(ref.xs, traj.xs) and _same_bits(ref.omegas, traj.omegas)
            assert traj.diverged == ref.diverged == result.diverged[i]
            _assert_rows_hold_record(tab[tab["trial"] == i], traj)
            lengths.append(len(traj))
        # records of diverged trials end mid-run, before row T
        assert result.diverged.any() and min(lengths) < result.schedule.total_steps + 1
        with pytest.raises(ValueError, match="kept no history"):
            result.y_dist2_history(np.zeros(dimension))

    def test_summary_json_is_strict(self, tmp_path):
        cfg = _small_config(out_dir=str(tmp_path / "run"))
        _, report = ensemble(cfg)
        # in memory (and printed) the pinned success fraction is NaN
        assert math.isnan(report.summary_dict()["success_fraction"])
        summary = _strict_json((tmp_path / "run" / "summary.json").read_text())
        assert set(summary) == {
            "n_trials", "success_fraction", "stay_radius2", "cluster_count",
            "cluster_tol", "diverged_count", "median_abs_final",
        }
        assert summary["success_fraction"] is None and summary["stay_radius2"] is None
        assert summary["median_abs_final"] == report.summary_dict()["median_abs_final"]

    def test_median_skips_diverged_trials(self):
        # the eta = 2.5 stage sends 20 of the 30 trials past the cutoff
        cfg = _small_config(
            objective=ObjectiveSpec(kind="quadratic", dimension=2, center=(1.0, -1.0)),
            stages=(
                StageSpec(0.05, 40, KernelSpec("uniform-ball", 1.0)),
                StageSpec(2.5, 34, KernelSpec("uniform-ball", 1.0)),
            ),
            n_trials=30,
            seed=5,
        )
        result, report = ensemble(cfg)
        assert report.diverged_count == 20
        norms = np.linalg.norm(result.finals_x, axis=1)
        kept = np.median(norms[~result.diverged])
        assert report.median_abs_final == kept != np.median(norms)

    def test_median_of_no_kept_trial_is_nan(self):
        # eta = 1e308 sends every trial past the cutoff in one step
        cfg = _small_config(
            objective=ObjectiveSpec(kind="quadratic", dimension=1, center=(0.0,)),
            stages=(StageSpec(1e308, 3, KernelSpec("zero", 0.0)),),
            n_trials=4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = ensemble(cfg)
        assert report.diverged_count == 4
        assert math.isnan(report.median_abs_final)

    def test_every_trial_diverged(self, tmp_path, capsys):
        # one step at eta = 1e308 on f = x^2/2 sends every trial past the
        # cutoff, to a final of about +-1e308 or +-inf, which no histogram
        # range can hold
        cfg = _small_config(
            objective=ObjectiveSpec(kind="quadratic", dimension=1, center=(0.0,)),
            stages=(StageSpec(1e308, 3, KernelSpec("zero", 0.0)),),
            n_trials=4,
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["ensemble", "--config", str(path)]) == 0
        bare = capsys.readouterr().out
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().out == bare
        assert "diverged_count: 4" in bare and "median_abs_final: nan" in bare
        summary = _strict_json((tmp_path / "e" / "summary.json").read_text())
        assert summary["diverged_count"] == 4 and summary["median_abs_final"] is None
        svg = (tmp_path / "e" / "finals.svg").read_text()
        assert svg.count("#4878cf") == 0 and svg.count("<line") == 2  # axes only

    def test_diverged_table_is_warning_free(self, tmp_path):
        # the frozen rows lie past the cutoff, where f and |grad f| overflow
        # to inf; the table keeps the inf without a numpy warning
        for dimension, kind, eta in ((1, "quadratic", 1e308), (2, "spiky", 1e300)):
            cfg = _small_config(
                objective=ObjectiveSpec(kind=kind, dimension=dimension),
                stages=(StageSpec(eta, 3, KernelSpec("zero", 0.0)),),
                n_trials=4,
                out_dir=str(tmp_path / kind),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, report = ensemble(cfg)
            assert report.diverged_count == 4
            tab = np.load(tmp_path / kind / "trajectories.npy")
            assert np.isinf(tab["grad_norm"]).any()

    def test_median_is_bitwise_np_median(self):
        # sizes 1-64, odd and even, with ties and signed zeros
        gen = np.random.default_rng(3)
        for n in range(1, 65):
            for a in (
                gen.random(n),
                np.round(gen.normal(size=n), 1),
                gen.integers(0, 3, size=n).astype(float),
                np.where(gen.random(n) < 0.5, -0.0, 0.0),
            ):
                got = pipeline_module._median(a.copy())
                assert np.float64(got).tobytes() == np.float64(np.median(a)).tobytes(), (n, a)

    def test_bare_ensemble_does_not_import_numpy_ma(self):
        # np.median's NaN check imports numpy.ma; a summary must not.  A
        # numpy that imports numpy.ma with itself (1.x) has nothing to save.
        src = str(Path(pipeline_module.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, numpy\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "from sgdsmooth.expcli import cli\n"
            "assert cli.main(['ensemble', '--trials', '20']) == 0\n"
            "print('eager' if eager else 'numpy.ma' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        imported = run.stdout.splitlines()[-1]
        if imported == "eager":
            pytest.skip("this numpy imports numpy.ma on import")
        assert imported == "False"


def _strict_json(text):
    """Parse `text` as strict JSON: NaN, Infinity and -Infinity raise."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _traced_peak(fn) -> int:
    """Peak bytes that `fn()` allocates, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFinalsOnlyMemory:
    """Three stages of 1,000, 1,500 and 2,000 steps over 200 trials in 1-d:
    the iterate history is 4,501 x 200 float64.  A run, with history or
    without, draws its noise in pieces of `_NOISE_ROWS` = 256 rows per
    trial, every trial's piece in one `NoiseKernel.sample_trials` call,
    so it holds 200 x 256 of noise, not the longest stage's 2,000 x 200;
    a d > 1 ball stage, drawn at once, would hold a whole stage."""

    TRIALS = 200

    def _config(self):
        return _small_config(n_trials=self.TRIALS, seed=31, stages=tuple(
            StageSpec(eta, steps, KernelSpec("uniform-ball", r))
            for eta, steps, r in ((0.2, 1000, 3.1416), (0.1, 1500, 3.1), (0.04, 2000, 2.0))
        ))

    def test_ensemble_without_out_dir_holds_one_piece_of_noise(self):
        cfg = self._config()
        ensemble(cfg)  # one-time allocations of a first call are not the run's
        peak = _traced_peak(lambda: ensemble(cfg))
        assert peak < self.TRIALS * _NOISE_ROWS * 8 + 2**20

    def test_long_stage_holds_one_piece_of_noise(self):
        # 200 trials x 40,000 steps: the whole stage's noise is 64 MB, and
        # nothing else the run keeps grows with the stage's length; in
        # pieces of 1,024 rows the run peaks at about 2.0 MB, above the bound
        n, rows = 200, 40_001
        kernel = KernelSpec("uniform-ball", 3.1)
        cfg = _small_config(n_trials=n, seed=32, stages=(StageSpec(0.1, rows - 1, kernel),))
        ensemble(replace(cfg, stages=(StageSpec(0.1, 10, kernel),)))  # first-call allocations
        peak = _traced_peak(lambda: ensemble(cfg))
        assert peak < n * _NOISE_ROWS * 8 + 2**19

    def test_history_run_holds_the_histories(self):
        cfg = self._config()
        obj, sched = cfg.build_objective(), cfg.build_schedule()
        x0s = draw_inits(self.TRIALS, 1, cfg.init_box, cfg.seed)
        run = lambda: run_lockstep_ensemble(obj, sched, x0s, cfg.seed, keep_history=True)
        run()  # one-time allocations of a first call are not the run's
        peak = _traced_peak(run)
        # the iterate history, one piece of noise and about 1 KB of
        # generator per trial; a stored noise history or a shadow history
        # would add a second 7.2 MB
        history = 4501 * self.TRIALS * 8
        assert history <= peak < history + self.TRIALS * (_NOISE_ROWS * 8 + 2**10) + 2**18

    def test_finals_only_run_stores_no_shadow_block(self):
        # 2,000 trials x 200 steps in 1-d: the noise buffer is 2,000 x 200
        # float64 and one (64, n, 1) block 1 MB, so a second, shadow block
        # breaks the bound
        n, steps = 2000, 200
        obj = make_spiky(SpikyParams())
        sched = StepSchedule((Stage(0.04, steps, NoiseKernel("uniform-ball", 2.0, 1)),))
        x0s = np.linspace(-3.0, 3.0, n)[:, None]
        streams = [RngStream(8, i) for i in range(n)]
        run = lambda: lockstep_run(obj, sched, x0s, streams, keep_history=False)
        run()  # one-time allocations of a first call are not the run's
        peak = _traced_peak(run)
        assert peak < n * steps * 8 + 64 * n * 8 + 2**20

    def test_wide_finals_only_run_holds_one_piece_of_noise(self):
        # 2,000 trials x one 1,100-step stage in 1-d: the noise buffer is
        # 2,000 x _NOISE_ROWS float64, plus one (_BLOCK, n, 1) block
        # and about 1 KB of generator per trial; in pieces of 1,024 rows
        # the run peaks at about 19 MB, above the bound
        n, steps = 2000, 1100
        obj = make_spiky(SpikyParams())
        sched = StepSchedule((Stage(0.04, steps, NoiseKernel("uniform-ball", 2.0, 1)),))
        x0s = np.linspace(-3.0, 3.0, n)[:, None]
        streams = [RngStream(9, i) for i in range(n)]
        run = lambda: lockstep_run(obj, sched, x0s, streams, keep_history=False)
        run()  # one-time allocations of a first call are not the run's
        peak = _traced_peak(run)
        assert peak < n * _NOISE_ROWS * 8 + n * _BLOCK * 8 + n * 2**10 + 2**20


class TestPersistedMemory:
    """A persisted run streams its table from the rows the engine already
    has: beyond the bare run it holds the table's row buffer and one
    chunk of temporaries, O(`_TABLE_ROWS`) rows, never a second copy of a
    noise piece or a block of table rows."""

    def _extra_peak(self, tmp_path, obj, sched, x0s):
        """Traced peak of the persisted run minus that of the bare one."""
        path = tmp_path / "t.npy"
        run = lambda table=None: run_lockstep_ensemble(obj, sched, x0s, 3, keep_history=False, table=table)
        run(path)  # one-time allocations of a first call are not the run's
        return _traced_peak(lambda: run(path)) - _traced_peak(run)

    def test_wide_run_adds_table_rows_only(self, tmp_path):
        # 1,000 trials x 600 steps in 1-d: a copy of each 256-row noise
        # piece and (64 x 1,000)-row block temporaries added 4.5 MB
        obj = make_spiky(SpikyParams())
        sched = StepSchedule((Stage(0.05, 600, NoiseKernel("uniform-ball", 2.0, 1)),))
        x0s = draw_inits(1000, 1, (-3.0, 3.0), 3)
        assert self._extra_peak(tmp_path, obj, sched, x0s) < 1.5 * 2**20

    def test_whole_stage_piece_is_not_copied(self, tmp_path):
        # 50 trials x one 20,000-step ball stage in 2-d, drawn as one
        # 16 MB piece: its copy for the observer added 15.2 MB
        obj = make_spiky(SpikyParams(dimension=2))
        sched = StepSchedule((Stage(0.05, 20_000, NoiseKernel("uniform-ball", 1.0, 2)),))
        x0s = draw_inits(50, 2, (-3.0, 3.0), 3)
        assert self._extra_peak(tmp_path, obj, sched, x0s) < 2**20


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

    def test_scans_split_the_confidence_over_the_radii(self, spiky_default, monkeypatch):
        levels = []
        region_scan = pipeline_module.region_scan

        def record(*args, **kwargs):
            levels.append(kwargs["confidence"])
            return region_scan(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "region_scan", record)
        radii = default_window_candidates(SpikyParams(), 0.01)
        result = calibrate_noise(
            spiky_default, 0.01, c_min=0.2, grid=np.linspace(-2, 2, 8),
            r_candidates=radii, n=4096, seed=123, confidence=0.95,
        )
        assert result.confidence == 0.95
        assert len(result.tried) > 1
        per_scan = 1.0 - (1.0 - 0.95) / len(radii)
        assert levels == [per_scan] * len(result.tried)
        assert [rep.confidence for rep in result.reports] == levels

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_confidence_checked(self, spiky_default, confidence):
        with pytest.raises(ValueError, match="confidence must be in"):
            calibrate_noise(spiky_default, 0.01, c_min=0.2, grid=np.linspace(-2, 2, 4),
                            r_candidates=[1.0, 2.0], n=1000, seed=1, confidence=confidence)

    def test_empty_candidates_rejected(self, spiky_default):
        with pytest.raises(ValueError, match="r_candidates must be non-empty"):
            calibrate_noise(spiky_default, 0.01, c_min=0.2, grid=np.linspace(-2, 2, 4),
                            r_candidates=[], n=1000, seed=1)

    def test_raises_when_no_candidate_certifies(self, spiky_default):
        with pytest.raises(ValueError):
            calibrate_noise(
                spiky_default, 0.01, c_min=100.0, grid=np.linspace(-2, 2, 4),
                r_candidates=[1.0, 2.0], n=1000, seed=1,
            )


def _reference_curve_csv(path, columns):
    """Reference: the row-wise `pipeline.write_curve_csv` that
    `write_csv_columns` replaced for the smoothed-curve CSVs."""
    names = list(columns)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(columns[c] for c in names)):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _reference_certify_csv(path, report, d):
    """Reference: the row-wise loop `cmd_certify` wrote certify.csv with."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join([f"x_{i}" for i in range(d)]
                          + ["inner", "dist2", "c_hat", "ci", "pass", "degenerate"]) + "\n")
        for cert in report.certificates:
            fh.write(",".join(
                [repr(float(v)) for v in cert.x]
                + [repr(cert.inner), repr(cert.dist2), repr(cert.c_hat),
                   repr(cert.ci_halfwidth), str(int(cert.passed)), str(int(cert.degenerate))]
            ) + "\n")
        fh.write(f"# certified_c,{report.certified_c!r}\n")


class TestCsvWriters:
    """`write_csv_columns` against the row-wise writers it replaced."""

    def test_curve_bytes_equal_reference(self, tmp_path):
        # 2,049 rows cross two chunk edges
        gen = np.random.default_rng(3)
        cols = {name: gen.standard_normal(2049) * 10.0 ** gen.integers(-300, 300, 2049)
                for name in ("y", "f", "g_mc", "g_closed", "ci_halfwidth")}
        cols["f"][:4] = [-0.0, np.nan, np.inf, -np.inf]
        write_csv_columns(tmp_path / "new.csv", cols)
        _reference_curve_csv(tmp_path / "ref.csv", cols)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.splitlines()[1].split(b",")[1] == b"-0.0"

    def test_smoothing_curve_bytes_equal_reference(self, tmp_path):
        cols = smoothing_curve(SpikyParams(), 0.05, 1.0, np.linspace(-1, 1, 9), n=2000, seed=5)
        write_csv_columns(tmp_path / "new.csv", cols)
        _reference_curve_csv(tmp_path / "ref.csv", cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("objective, grid", [
        # on f = x^2/2 with eta = 0.5, y = x/2: the grid ends at x = -0.0
        # (linspace returns its stop exactly), a degenerate point (c_hat NaN)
        (ObjectiveSpec(kind="quadratic", dimension=1, center=(0.0,)), GridSpec(-1.0, -0.0, 5)),
        (ObjectiveSpec(kind="spiky", dimension=2), GridSpec(-1.0, 1.0, 4)),
    ], ids=["degenerate-negative-zero", "d2"])
    def test_certify_bytes_equal_reference(self, tmp_path, capsys, monkeypatch, objective, grid):
        reports = []
        region_scan = cli_module.region_scan

        def record(*args, **kwargs):
            reports.append(region_scan(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli_module, "region_scan", record)
        cfg = _small_config(objective=objective, cert_grid=grid, cert_samples=1000,
                            stages=(StageSpec(0.5, 10, KernelSpec("uniform-ball", 1.0)),))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["certify", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
        _reference_certify_csv(tmp_path / "ref.csv", reports[0], objective.dimension)
        new = (tmp_path / "c" / "certify.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        if objective.kind == "quadratic":
            last = new.splitlines()[-2]
            assert last.startswith(b"-0.0,") and b",nan," in last

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="one length"):
            write_csv_columns(tmp_path / "bad.csv", {"a": [1.0, 2.0], "b": [1.0]})


class TestSmoothingCurve:
    def test_columns_and_csv(self, tmp_path):
        ys = np.linspace(-1, 1, 9)
        cols = smoothing_curve(SpikyParams(), 0.05, 1.0, ys, n=2000, seed=5)
        assert set(cols) == {"y", "f", "g_mc", "g_closed", "ci_halfwidth"}
        path = tmp_path / "curve.csv"
        write_csv_columns(path, cols)
        back = read_csv_columns(path)
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
        with pytest.raises(ConfigError, match="at least 3 noise levels"):
            figure3(_figure3_config(noise_levels=(0.3,)))
        with pytest.raises(ConfigError, match="at least 2 shrink stages"):
            figure3(
                _figure3_config(
                    stages=(StageSpec(0.1, 10, KernelSpec("uniform-ball", 1.0)),)
                )
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

    def test_first_shrink_stage_reuses_ensemble_output(self, tmp_path):
        cfg = _figure3_config(out_dir=str(tmp_path / "fig"))
        figure3(cfg)
        ensemble(replace(cfg, stages=cfg.stages[:1], out_dir=str(tmp_path / "stage0")))
        panel = tmp_path / "fig" / "row3_stage0"
        names = sorted(p.name for p in panel.iterdir())
        assert names == ["finals.svg", "summary.json", "trajectories.npy"]
        match, mismatch, errors = filecmp.cmpfiles(
            panel, tmp_path / "stage0", names, shallow=False
        )
        assert mismatch == [] and errors == []
        # the first stage's spec is the first noise level's panel, so its
        # files are that panel's
        match, mismatch, errors = filecmp.cmpfiles(
            panel, tmp_path / "fig" / "row2_level1", names, shallow=False
        )
        assert mismatch == [] and errors == []

    def test_row1_mc_inside_ci_everywhere(self, tmp_path):
        cfg = _figure3_config(out_dir=str(tmp_path / "fig"))
        figure3(cfg)
        params = SpikyParams()
        for j, r in enumerate(cfg.noise_levels):
            cols = read_csv_columns(tmp_path / "fig" / f"row1_level{j}.csv")
            for y, g_mc, ci in zip(cols["y"], cols["g_mc"], cols["ci_halfwidth"]):
                closed = smoothed_value_closed(params, r, cfg.stages[0].eta, [y])
                assert abs(g_mc - closed) <= ci

    def test_row1_only_with_an_output_directory(self, tmp_path, monkeypatch):
        calls = []
        curve = pipeline_module.smoothing_curve

        def counted(*args, **kwargs):
            calls.append(None)
            return curve(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "smoothing_curve", counted)
        bare = figure3(_figure3_config())
        assert calls == []
        out = str(tmp_path / "fig")
        persisted = figure3(_figure3_config(out_dir=out))
        assert len(calls) == len(persisted.noise_levels)
        # the report holds no row-1 value, so it is the same either way
        assert replace(persisted, out_dir=None) == bare

    def test_row3_reports_per_stage(self):
        report = figure3(_figure3_config())
        assert len(report.row3_reports) == 2
        assert len(report.row3_medians) == 2
        assert len(report.row2_reports) == len(report.noise_levels) + 1

    def test_every_summary_json_is_strict(self, tmp_path):
        cfg = _figure3_config(out_dir=str(tmp_path / "fig"))
        figure3(cfg)
        paths = sorted((tmp_path / "fig").rglob("summary.json"))
        assert len(paths) == len(cfg.noise_levels) + 1 + len(cfg.stages)
        for path in paths:
            assert _strict_json(path.read_text())["success_fraction"] is None

    # the first stage's radius 3.1416 is a noise level, so row 3 reuses that
    # row-2 panel, unless the levels leave it out
    @pytest.mark.parametrize(
        "persist, shared",
        [(False, True), (True, True), (False, False), (True, False)],
        ids=["False", "True", "False-unshared", "True-unshared"],
    )
    def test_keeps_history_only_when_persisting(self, tmp_path, monkeypatch, persist, shared):
        flags = []
        run = pipeline_module.run_lockstep_ensemble

        # no panel keeps a history: a persisted one streams its table
        def recording(*args, keep_history=True, table=None):
            assert not keep_history
            flags.append(table is not None)
            return run(*args, keep_history=keep_history, table=table)

        monkeypatch.setattr(pipeline_module, "run_lockstep_ensemble", recording)
        cfg = _figure3_config(
            out_dir=str(tmp_path / "fig") if persist else None,
            noise_levels=(3.1416, 3.1, 2.0) if shared else (3.0, 3.1, 2.0),
        )
        report = figure3(cfg)
        # row 2: zero noise and each level, then row 3: each stage but a
        # first one that a row-2 panel already ran
        assert flags == [persist] * (1 + len(cfg.noise_levels) + len(cfg.stages) - shared)
        assert (report.row3_reports[0] is report.row2_reports[1]) == shared

    def test_row3_statistics_are_bitwise_numpy(self):
        # sizes 1-64 and 100, with ties, signed zeros, infinities and NaN
        # columns.  The NaN is np.nan: numpy 1.x returns np.nan for a slice
        # holding a NaN and numpy 2 that slice's NaN, so both give its bits
        gen = np.random.default_rng(11)
        for n in [*range(1, 65), 100]:
            pools = [
                gen.random((n, 3)),
                np.round(gen.normal(size=(n, 3)), 1),
                gen.integers(0, 3, size=(n, 3)).astype(float),
                np.where(gen.random((n, 3)) < 0.5, -0.0, 0.0),
                gen.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], size=(n, 3)),
            ]
            special = gen.normal(size=(n, 3))
            special[gen.integers(n), 0] = np.nan
            special[:, 1] = np.nan
            special[gen.integers(n), 2] = np.inf
            pools.append(special)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
                for a in pools:
                    for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
                        got = pipeline_module._quantile(a.copy(), q)
                        assert got.tobytes() == np.quantile(a, q, axis=0).tobytes(), (n, q, a)
                    for col in a.T:
                        got = pipeline_module._median(col.copy())
                        assert np.float64(got).tobytes() == np.float64(np.median(col)).tobytes(), (n, col)

    def test_does_not_import_numpy_ma(self, tmp_path):
        # np.median and np.quantile import numpy.ma on their first call;
        # figure3's row 3 must not.  A numpy that imports numpy.ma with
        # itself (1.x) has nothing to save.
        path = tmp_path / "cfg.json"
        path.write_text(_figure3_config().dumps())
        src = str(Path(pipeline_module.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, numpy\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "from sgdsmooth.expcli import cli\n"
            f"assert cli.main(['figure3', '--config', {str(path)!r}, '--out', {str(tmp_path / 'fig')!r}]) == 0\n"
            "print('eager' if eager else 'numpy.ma' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        imported = run.stdout.splitlines()[-1]
        if imported == "eager":
            pytest.skip("this numpy imports numpy.ma on import")
        assert imported == "False"


class TestCli:
    def test_bounds_exit_codes(self, capsys, tmp_path):
        cfg = _small_config(theorem=TheoremSpec(1.0, 0.1, 1.0, 1.0, 1.0, 10))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.19" in out and '"lambda"' in out

    def test_bounds_json_is_strict(self, capsys, tmp_path):
        # lambda = 2*eta*c - eta^2*L^2 < 0: the stay radius and delta2 are inf
        cfg = _small_config(theorem=TheoremSpec(0.001, 0.01, 101.0, 1.0, 1.0, 10))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        table, _, block = out.partition("\n{")
        assert "inf" in table
        data = _strict_json("{" + block)
        assert data["lambda"] < 0
        assert data["stay_radius2"] is None and data["delta2"] is None

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

    def test_run_replays_ensemble_trial_0(self, tmp_path, capsys):
        cfg = _small_config(
            objective=ObjectiveSpec(kind="spiky", dimension=2),
            stages=(
                StageSpec(0.05, 40, KernelSpec("uniform-ball", 1.0)),
                StageSpec(0.02, 30, KernelSpec("uniform-cube", 0.5)),
            ),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 0
        args = ["ensemble", "--config", str(path), "--trials", "1", "--out", str(tmp_path / "e")]
        assert main(args) == 0
        cols = read_csv_columns(tmp_path / "r" / "trial_0.csv")
        rows = np.load(tmp_path / "e" / "trajectories.npy")
        assert np.all(rows["trial"] == 0)
        for name in ("t", "stage", "f", "grad_norm", "noise_norm", "dist2", "out_of_box"):
            assert _same_bits(cols[name], rows[name].astype(float)), name
        for k in range(2):
            assert _same_bits(cols[f"x_{k}"], rows["x"][:, k]), k

    @pytest.mark.parametrize(
        "command, patch",
        [
            ("ensemble", {"stages": [{"eta": 0.05, "steps": 4, "kernel": {"kind": "blob"}}]}),
            ("ensemble", {"stages": [{"eta": -0.2, "steps": 4, "kernel": {"radius": 1.0}}]}),
            ("ensemble", {"cluster_tol": 0}),
            ("ensemble", {"histogram_bins": 0}),
            ("ensemble", {"init_box": [1]}),
            ("certify", {"cert_samples": 1}),
            ("figure3", {"noise_levels": [-1, 2, 3]}),
            ("figure3", {"noise_levels": ["x", 2, 3]}),
            ("figure3", {"noise_levels": [float("nan"), 2, 3]}),
            ("certify", {"cert_grid": {"count": 2.5}}),
            ("smooth", {"cert_grid": {"count": 0}}),
            ("ensemble", {"n_trial": 5}),
            ("ensemble", {"n_trials": 1e30}),
            ("ensemble", {"objective": {"kind": "quadratic", "dimension": 2, "center": "12"}}),
            ("run", {"stages": [{"eta": math.nan, "steps": 4, "kernel": {"radius": 1.0}}]}),
            ("ensemble", {"init_box": [math.nan, 1.0]}),
            ("bounds", {"theorem": {"c": math.nan, "eta": 0.01, "L": 1.0, "r": 1.0,
                                    "y0_dist2": 1.0, "T2": 10}}),
            ("certify", {"cert_grid": {"lo": -math.inf}}),
            ("ensemble", {"objective": {"freq": math.inf}}),
            ("run", {"out_dir": 5}),
        ],
        ids=[
            "kernel-kind", "eta", "cluster-tol", "histogram-bins", "init-box", "cert-samples",
            "noise-level-negative", "noise-level-not-a-number", "noise-level-nan",
            "grid-count-fraction",
            "grid-count-zero", "unknown-key", "n-trials-beyond-int64",
            "center-not-an-array", "eta-nan", "init-box-nan", "theorem-c-nan",
            "grid-lo-minus-infinity", "freq-infinity", "out-dir-not-a-string",
        ],
    )
    def test_config_errors_exit_1(self, tmp_path, capsys, command, patch):
        data = _small_config().to_json_dict()
        data.update(patch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_non_finite_config_number_message(self, tmp_path, capsys):
        data = _small_config().to_json_dict()
        data["stages"][0]["eta"] = math.nan
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: stages[0].eta must be a finite number, got nan\n"

    @pytest.mark.parametrize("command", ["run", "ensemble"])
    @pytest.mark.parametrize(
        "patch",
        [
            {"stages": [{"eta": 0.05, "steps": 4, "kernel": {"radius": 1e308}}]},
            {"init_box": [-1e308, 1e308]},
        ],
        ids=["kernel-radius", "init-box"],
    )
    def test_overflowing_draw_exits_2(self, tmp_path, capsys, command, patch):
        data = _small_config().to_json_dict()
        data.update(patch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "Traceback" not in err

    def test_persisted_run_that_raises_leaves_no_table(self, tmp_path, capsys):
        # the table is opened before the first step, whose draw overflows
        data = _small_config().to_json_dict()
        data["stages"] = [{"eta": 0.05, "steps": 4, "kernel": {"radius": 1e308}}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "e")]) == 2
        assert capsys.readouterr().err == "numerical error: Range exceeds valid bounds\n"
        assert list((tmp_path / "e").iterdir()) == []

    def test_config_error_is_not_wrapped_twice(self, tmp_path, capsys):
        data = _small_config().to_json_dict()
        data["n_trial"] = 5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["ensemble", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "config error: unknown key 'n_trial' in config\n"

    def test_run_divergence_exit_code(self, tmp_path, capsys):
        cfg = _small_config(
            objective=ObjectiveSpec(kind="quadratic", dimension=1, center=(0.0,)),
            stages=(StageSpec(3.0, 200, KernelSpec("zero", 0.0)),),
        )
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["run", "--config", str(path)]) == 2

    def test_ensemble_summary_same_with_and_without_out(self, tmp_path, capsys):
        assert main(["ensemble", "--seed", "7", "--trials", "20"]) == 0
        bare = capsys.readouterr().out
        assert main(["ensemble", "--seed", "7", "--trials", "20", "--out", str(tmp_path / "e")]) == 0
        assert capsys.readouterr().out == bare
        assert "success_fraction: nan" in bare

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"noise_levels": (0.3, 0.2)}, "figure3 needs at least 3 noise levels"),
            ({"stages": (StageSpec(0.1, 10, KernelSpec("uniform-ball", 1.0)),)},
             "figure3 needs at least 2 shrink stages"),
        ],
        ids=["two-levels", "one-stage"],
    )
    def test_figure3_rejects_config_before_making_out_dir(self, tmp_path, capsys, overrides, message):
        path = tmp_path / "cfg.json"
        path.write_text(_figure3_config(**overrides).dumps())
        assert main(["figure3", "--config", str(path), "--out", str(tmp_path / "f")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "f").exists()

    def test_figure3_subcommand(self, tmp_path, capsys):
        cfg = _figure3_config(n_trials=4)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.dumps())
        assert main(["figure3", "--config", str(path), "--out", str(tmp_path / "f")]) == 0
        assert (tmp_path / "f" / "row2_level0" / "summary.json").exists()
