"""Each correctness check of the benchmark can fail.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Every test starts from an observation that passes all checks of its
workload, perturbs one value, and asserts that exactly the matching check
fails.
"""
from __future__ import annotations

import copy

import numpy as np
import pytest

from sgdsmooth import SpikyParams, smoothed_grad_closed
from sgdsmooth.expcli import cluster_count

import workloads

CAL = workloads.WORKLOADS["calibrate_stay"]
FIG = workloads.WORKLOADS["figure3_persist"]
ENS = workloads.WORKLOADS["ensemble_wide"]
RUN = workloads.WORKLOADS["run_long"]


def failing(checks) -> list[str]:
    return [name for name, ok, _ in checks if not ok]


# ---- calibrate_stay ----


def calibrate_obs() -> dict:
    r = 6283.185307179586
    certs = []
    for y in np.linspace(-3.0, 3.0, 10):
        closed = smoothed_grad_closed(SpikyParams(), r, CAL.ETA, [y]) * y
        certs.append((float(y), closed + 0.01, 0.05, r))
    return {"certified_c": 0.35, "certs": certs, "hit_and_stay": 1.0, "diverged": 0}


def test_calibrate_baseline_passes():
    assert failing(CAL.check(calibrate_obs(), {})) == []


@pytest.mark.parametrize("change, name", [
    ({"certified_c": 0.25}, "certified c >= c_min"),
    ({"hit_and_stay": 0.49}, "hit-and-stay fraction >= 0.5"),
    ({"diverged": 1}, "no diverged trials"),
])
def test_calibrate_scalar_checks_fail(change, name):
    obs = calibrate_obs() | change
    assert failing(CAL.check(obs, {})) == [name]


def test_calibrate_closed_form_check_fails_outside_ci():
    obs = calibrate_obs()
    # one certificate in 10 outside its CI leaves 90% < 95% inside
    y, inner, ci, r = obs["certs"][3]
    obs["certs"][3] = (y, inner + 2 * ci, ci, r)
    assert failing(CAL.check(obs, {})) == [
        "closed-form inner product inside the certificate CI at >= 95% of certificates"
    ]


# ---- figure3_persist ----


def figure3_obs_and_ref() -> tuple[dict, dict]:
    meds = {"row2_level0": 2.0, "row2_level1": 1.9, "row2_level2": 1.8, "row2_level3": 1.7,
            "row3_stage0": 1.4, "row3_stage1": 1.2, "row3_stage2": 0.25}
    panels = {name: {"cluster_count": 5, "diverged_count": 0, "median_abs_final": m}
              for name, m in meds.items()}
    return {"seed": FIG.SEED, "rc": 0, "panels": panels}, {"panels": copy.deepcopy(panels)}


def test_figure3_baseline_passes():
    obs, ref = figure3_obs_and_ref()
    assert failing(FIG.check(obs, ref)) == []


def test_figure3_fails_on_nonzero_exit():
    obs, ref = figure3_obs_and_ref()
    obs["rc"] = 2
    assert failing(FIG.check(obs, ref)) == ["exit code 0"]


def test_figure3_fails_on_missing_summary():
    obs, ref = figure3_obs_and_ref()
    obs["panels"]["row2_level2"] = None
    assert failing(FIG.check(obs, ref)) == [
        "every panel has summary.json",
        "per-panel clusters, diverged counts and medians equal the reference",
    ]


def test_figure3_fails_when_medians_do_not_decrease():
    obs, ref = figure3_obs_and_ref()
    for panels in (obs["panels"], ref["panels"]):
        panels["row3_stage1"]["median_abs_final"] = 1.4
    assert failing(FIG.check(obs, ref)) == ["row-3 medians strictly decrease"]


@pytest.mark.parametrize("key, value", [
    ("cluster_count", 6), ("diverged_count", 1), ("median_abs_final", 0.25000000000000006),
])
def test_figure3_fails_against_perturbed_reference(key, value):
    obs, ref = figure3_obs_and_ref()
    ref["panels"]["row3_stage2"][key] = value
    assert failing(FIG.check(obs, ref)) == [
        "per-panel clusters, diverged counts and medians equal the reference"
    ]


# ---- ensemble_wide ----


def ensemble_obs_and_ref() -> tuple[dict, dict]:
    summary = workloads.canonical({
        "n_trials": 800, "success_fraction": float("nan"), "stay_radius2": None,
        "cluster_count": 4, "cluster_tol": 0.05, "diverged_count": 0,
        "median_abs_final": 0.30003167439001344,
    })
    replays = [{"trial": i, "sequential": [0.1 * i], "lockstep": [0.1 * i],
                "diverged": [False, False]} for i in (0, 17, 799)]
    obs = {"seed": 20240, "rc": 0, "captured": True, "cluster_count": 4, "oracle_count": 4,
           "replays": replays, "summary": summary}
    return obs, {"20240": copy.deepcopy(summary)}


def test_ensemble_baseline_passes():
    obs, ref = ensemble_obs_and_ref()
    assert failing(ENS.check(obs, ref)) == []


def test_ensemble_fails_when_cluster_count_disagrees_with_oracle():
    obs, ref = ensemble_obs_and_ref()
    obs["oracle_count"] = 5
    assert failing(ENS.check(obs, ref)) == ["cluster_count equals the sort-and-split oracle"]


@pytest.mark.parametrize("field", ["lockstep", "diverged"])
def test_ensemble_fails_when_a_replay_differs(field):
    obs, ref = ensemble_obs_and_ref()
    replay = obs["replays"][1]
    if field == "lockstep":
        replay["lockstep"] = [float(np.nextafter(replay["sequential"][0], np.inf))]
    else:
        replay["diverged"] = [True, False]
    assert failing(ENS.check(obs, ref)) == ["sampled trials replay bitwise with sgd_run"]


def test_ensemble_fails_against_perturbed_reference():
    obs, ref = ensemble_obs_and_ref()
    ref["20240"]["cluster_count"] = 5
    assert failing(ENS.check(obs, ref)) == ["summary equals the reference"]


def test_ensemble_fails_without_captured_result():
    obs = {"seed": 20240, "rc": 1, "captured": False}
    assert failing(ENS.check(obs, {})) == ["exit code 0 and ensemble result captured"]


def test_sort_and_split_oracle_matches_union_find():
    rng = np.random.default_rng(7)
    for n in (1, 2, 50, 300):
        pts = rng.uniform(-5.0, 5.0, size=(n, 1))
        assert workloads.split_at_gaps_count(pts, 0.05) == cluster_count(pts, 0.05)
    assert workloads.split_at_gaps_count(np.empty((0, 1)), 0.05) == 0


# ---- run_long ----


def run_obs_and_ref() -> tuple[dict, dict]:
    obs = {"seed": 20240, "rc": 0, "captured": True, "residual": 0.0,
           "rows": RUN.STEPS + 1, "final_x": [0.15946214], "diverged": False}
    return obs, {"20240": [0.15946214]}


def test_run_baseline_passes():
    obs, ref = run_obs_and_ref()
    assert failing(RUN.check(obs, ref)) == []


@pytest.mark.parametrize("change, name", [
    ({"rows": RUN.STEPS}, "CSV has steps + 1 rows"),
    ({"residual": 1e-9}, "shadow_check residual <= 1e-10"),
    ({"rc": 2}, "exit code 0"),
])
def test_run_scalar_checks_fail(change, name):
    obs, ref = run_obs_and_ref()
    assert failing(RUN.check(obs | change, ref)) == [name]


def test_run_fails_against_perturbed_reference():
    obs, ref = run_obs_and_ref()
    ref["20240"] = [0.15946214 + 1e-11]
    assert failing(RUN.check(obs, ref)) == ["final x equals the reference within 1e-12"]
