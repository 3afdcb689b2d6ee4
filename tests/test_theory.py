"""Derived constants, drift inequality and ensemble stay validation."""
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdsmooth import (
    NoiseKernel,
    RngStream,
    Stage,
    StepSchedule,
    constants,
    divergence_threshold,
    drift_check,
    gd_run,
    make_quadratic,
    sgd_run,
    stay_validate,
)
from sgdsmooth.expcli.cli import main
from sgdsmooth.expcli.pipeline import draw_inits, run_lockstep_ensemble

from conftest import poisoned, shadow_rows


def _power_form(c, eta, L, r):
    """lambda, b and c / L^2 as Python's float ** evaluates them: the
    formulas `constants` must reproduce bit for bit wherever no square
    overflows (there ** raises OverflowError)."""
    lam = 2.0 * eta * c - eta**2 * L**2
    b = eta**2 * r**2 * (1.0 + eta * L) ** 2
    return lam, b, (c / L**2 if L > 0 else None)


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


# the literal inputs of the tests below, as (c, eta, L, r)
_LITERAL_INPUTS = [
    (1.0, 0.1, 1.0, 1.0), (1.0, 0.1, 1.0, 0.0), (1.0, 0.6, 1.0, 1.0), (1.0, 0.4, 1.0, 1.0),
    (1.0, 0.1, 1.0, 0.1), (0.7, 0.05, 2.0, 1.5), (0.1, 0.1, 10.0, 1.0), (0.5, 0.1, 1.0, 1.0),
    (0.8, 0.05, 1.0, 1.0), (1.0, 0.1, 1.0, 0.5), (0.9, 0.01, 2.0, 1.5), (0.001, 0.01, 101.0, 1.0),
    *[(1.0, float(e), 2.0, 1.0) for e in np.linspace(1e-4, 0.24, 20)],
    *[(1.0, float(e), 1.0, 1.0) for e in np.linspace(0.01, 0.2, 8)],
    *[(1.0, 0.1, 1.0, float(r)) for r in np.linspace(0.5, 2.0, 8)],
    *[(float(c), 0.1, 1.0, 1.0) for c in np.linspace(0.5, 2.0, 8)],
]


class TestConstants:
    def test_hand_values(self):
        cons = constants(1.0, 0.1, 1.0, 1.0, 1.0, 10)
        assert cons.lam == pytest.approx(0.19, rel=1e-12)
        assert cons.b == pytest.approx(0.0121, rel=1e-12)
        assert cons.stay_radius2 == pytest.approx(0.242 / 0.19, rel=1e-12)

    def test_zero_noise_degenerate(self):
        cons = constants(1.0, 0.1, 1.0, 0.0, 1.0, 10)
        assert cons.b == 0.0
        assert cons.stay_radius2 == 0.0
        assert cons.T1_min == 0

    def test_eta_validity_flag(self):
        assert not constants(1.0, 0.6, 1.0, 1.0, 1.0, 10).eta_valid
        assert constants(1.0, 0.4, 1.0, 1.0, 1.0, 10).eta_valid

    def test_t1_positive_case(self):
        # lam = 0.19, b = 1.21e-4, y0 = 100:
        # ceil(ln(0.19 * 100 / 1.21e-4) / 0.19) = 63 by hand
        cons = constants(1.0, 0.1, 1.0, 0.1, 100.0, 10)
        assert cons.T1_min == 63

    def test_t1_when_the_log_argument_overflows(self, tmp_path, capsys):
        # lam * y0 / b = 0.19 * 1e308 / 0.0121 overflows a double, but
        # ln(0.19) + 308 ln(10) - ln(0.0121) = 711.95 does not:
        # ceil(711.95 / 0.19) = 3748 by hand
        assert constants(1.0, 0.1, 1.0, 1.0, 1e308, 10).T1_min == 3748
        # a finite ratio, 1.57e306 here, keeps the direct log
        cons = constants(1.0, 0.1, 1.0, 1.0, 1e305, 10)
        assert cons.T1_min == math.ceil(math.log(cons.lam * 1e305 / cons.b) / cons.lam) == 3711
        path = tmp_path / "bounds.json"
        theorem = {"c": 1.0, "eta": 0.1, "L": 1.0, "r": 1.0, "y0_dist2": 1e308, "T2": 10}
        path.write_text(json.dumps({"theorem": theorem}))
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out[out.index("\n{") + 1 :])["T1_min"] == 3748

    def test_t1_clamps_to_zero_inside_floor(self):
        cons = constants(1.0, 0.1, 1.0, 1.0, 0.01, 10)
        assert cons.T1_min == 0

    def test_mu_floor_and_log_regime(self):
        small = constants(1.0, 0.1, 1.0, 1.0, 1.0, 0)
        assert small.mu == 8.0
        big = constants(1.0, 0.1, 1.0, 1.0, 1.0, 500)
        assert big.mu == pytest.approx(42.0 * math.sqrt(math.log(9 * 500 / 4)), rel=1e-12)

    def test_delta2_dominates_stay_radius(self):
        for T2 in (0, 10, 500, 10_000):
            cons = constants(0.7, 0.05, 2.0, 1.5, 4.0, T2)
            assert cons.delta2 >= cons.stay_radius2

    def test_lambda_exceeds_eta_c_in_valid_regime(self):
        for eta in np.linspace(1e-4, 0.24, 20):
            cons = constants(1.0, float(eta), 2.0, 1.0, 1.0, 10)
            if eta < 1.0 / 4.0:  # c / L^2
                assert cons.lam > eta * 1.0

    def test_negative_lambda_gives_infinite_radii(self):
        cons = constants(0.1, 0.1, 10.0, 1.0, 1.0, 10)
        assert cons.lam < 0
        assert math.isinf(cons.stay_radius2)
        assert math.isinf(cons.delta2)

    def test_stay_radius_monotonicity(self):
        etas = np.linspace(0.01, 0.2, 8)
        rs = np.linspace(0.5, 2.0, 8)
        cs = np.linspace(0.5, 2.0, 8)
        base = constants(1.0, 0.1, 1.0, 1.0, 1.0, 10).stay_radius2
        grew = [constants(1.0, float(e), 1.0, 1.0, 1.0, 10).stay_radius2 for e in etas]
        assert np.all(np.diff(grew) > 0)
        grew = [constants(1.0, 0.1, 1.0, float(r), 1.0, 10).stay_radius2 for r in rs]
        assert np.all(np.diff(grew) > 0)
        shrank = [constants(float(c), 0.1, 1.0, 1.0, 1.0, 10).stay_radius2 for c in cs]
        assert np.all(np.diff(shrank) < 0)
        assert base == constants(1.0, 0.1, 1.0, 1.0, 1.0, 10).stay_radius2  # pure

    def test_staged_shrink(self):
        first = constants(0.5, 0.1, 1.0, 1.0, 1.0, 10)
        second = constants(0.8, 0.05, 1.0, 1.0, 1.0, 10)
        assert second.stay_radius2 < first.stay_radius2

    def test_as_dict_round_trip(self):
        cons = constants(1.0, 0.1, 1.0, 1.0, 1.0, 10)
        d = cons.as_dict()
        assert d["lambda"] == cons.lam and d["T1_min"] == cons.T1_min

    def test_validation(self):
        with pytest.raises(ValueError):
            constants(0.0, 0.1, 1.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            constants(1.0, 0.0, 1.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            constants(1.0, 0.1, -1.0, 1.0, 1.0, 10)
        # NaN fails every positivity check
        nan = math.nan
        for args in (
            (nan, 0.1, 1.0, 1.0, 1.0, 10),
            (1.0, nan, 1.0, 1.0, 1.0, 10),
            (1.0, 0.1, nan, 1.0, 1.0, 10),
            (1.0, 0.1, 1.0, nan, 1.0, 10),
            (1.0, 0.1, 1.0, 1.0, nan, 10),
            (1.0, 0.1, 1.0, 1.0, 1.0, nan),
        ):
            with pytest.raises(ValueError):
                constants(*args)
        # an infinite input fails its finiteness check, named in the message
        inf = math.inf
        for name, args in (
            ("c", (inf, 0.1, 1.0, 1.0, 1.0, 10)),
            ("eta", (1.0, inf, 1.0, 1.0, 1.0, 10)),
            ("L", (1.0, 0.1, inf, 1.0, 1.0, 10)),
            ("r", (1.0, 0.1, 1.0, inf, 1.0, 10)),
            ("y0_dist2", (1.0, 0.1, 1.0, 1.0, inf, 10)),
            ("T2", (1.0, 0.1, 1.0, 1.0, 1.0, inf)),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                constants(*args)

    @pytest.mark.parametrize("args, expected", [
        # eta * L = 0: lambda = 2 eta c, and b = 0 with no inf * 0
        ((1.0, 1e200, 0.0, 0.0, 1.0, 1), {"lambda": 2e200, "b": 0.0}),
        ((1.0, 0.1, 1e200, 0.0, 1.0, 1), {"lambda": -math.inf, "stay_radius2": math.inf, "eta_valid": False}),
        ((1.0, 0.1, 0.0, 1e200, 1.0, 1), {"lambda": 0.2, "b": math.inf, "T1_min": 0}),
        # L^2 underflows to 0, so its step-size limit c / L^2 is inf
        ((1.0, 0.1, 1e-162, 1.0, 1.0, 1), {"lambda": 0.2, "eta_valid": True}),
    ], ids=["eta", "L", "r", "L-underflow"])
    def test_square_out_of_range_is_not_nan(self, args, expected):
        # Python's float ** raised OverflowError on the first three squares,
        # and c / L^2 raised ZeroDivisionError on the last
        d = constants(*args).as_dict()
        assert not any(isinstance(v, float) and math.isnan(v) for v in d.values()), d
        assert {k: d[k] for k in expected} == expected

    @pytest.mark.parametrize("args, expected", [
        # 2 eta c overflows: lambda is inf, and log(lambda) / lambda is tiny
        ((1e308, 1.0, 0.0, 1.0, 1.0, 1), {"lambda": math.inf, "b": 1.0, "T1_min": 1}),
        # lambda = b = inf, but their ratio and the radii are finite
        ((1e300, 1e10, 0.0, 1e150, 1.0, 1), {"lambda": math.inf, "b": math.inf, "T1_min": 0}),
        # 2 eta c overflows, lambda does not, and b = 0: T1_min clamps to 0,
        # as in the float path
        ((1e154, 1e154, 1.0, 0.0, 1.0, 0), {"lambda": 1e308, "b": 0.0, "T1_min": 0}),
    ], ids=["lambda-inf", "lambda-and-b-inf", "lambda-inf-noiseless"])
    def test_overflowing_lambda_gives_exact_radii(self, args, expected):
        # these raised ValueError from math.ceil and returned a NaN
        # stay_radius2; the radii are 20 b / lambda and mu^2 b / lambda
        cons = constants(*args)
        d = cons.as_dict()
        assert {k: d[k] for k in expected} == expected
        c, eta, L, r, _, _ = map(Fraction, args)
        b_over_lam = (eta * r * (1 + eta * L)) ** 2 / (2 * eta * c - eta**2 * L**2)
        assert cons.stay_radius2 == float(20 * b_over_lam)
        assert cons.delta2 == float(Fraction(cons.mu) ** 2 * b_over_lam)

    @pytest.mark.parametrize("args", [(1e308, 1.0, 0.0, 1.0), (1e300, 1e10, 0.0, 1e150)],
                             ids=["lambda-inf", "lambda-and-b-inf"])
    def test_overflowing_lambda_radii_do_not_depend_on_y0(self, args):
        # at y0_dist2 = 0 the float path gave 20 b / inf = 0 for both radii
        radii = {(cons.stay_radius2, cons.delta2)
                 for cons in (constants(*args, y0, 1) for y0 in (0.0, 1.0, 1e300))}
        assert len(radii) == 1
        assert 0.0 < min(radii.pop())

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-170, 170), st.floats(-170, 170), st.floats(-170, 170), st.floats(-170, 170),
        st.booleans(), st.booleans(), st.floats(-300, 300),
    )
    # b = 1e-322 is subnormal, and only T1_min's ceiling overflows
    @example(-147.0, -161.0, 0.0, 0.0, False, False, 0.0)
    def test_finite_float_radii_keep_their_bits(self, lc, le, lL, lr, L_zero, r_zero, ly):
        c, eta = 10.0**lc, 10.0**le
        L = 0.0 if L_zero else 10.0**lL
        r = 0.0 if r_zero else 10.0**lr
        try:
            lam, b, _ = _power_form(c, eta, L, r)
        except (OverflowError, ZeroDivisionError):  # a square out of range
            return
        cons = constants(c, eta, L, r, 10.0**ly, 10)
        if not 0.0 < lam < math.inf:
            return
        radii = (20.0 * b / lam, cons.mu**2 * b / lam)
        if all(map(math.isfinite, radii)):
            assert _same_bits(cons.stay_radius2, radii[0]) and _same_bits(cons.delta2, radii[1])

    def test_radii_do_not_depend_on_y0_when_t1_min_overflows(self):
        # at y0_dist2 = 1 and 1e300 only T1_min's math.ceil overflows; the
        # radii keep the float formula's 9.88131291682498e-14 there as at
        # 1e-300, not the exact 1.0000000000000051e-13 of subnormal b
        runs = [constants(1e-147, 1e-161, 1.0, 1.0, y0, 10) for y0 in (1e-300, 1.0, 1e300)]
        assert [cons.T1_min > 0 for cons in runs] == [False, True, True]
        lam, b, _ = _power_form(1e-147, 1e-161, 1.0, 1.0)
        for cons in runs:
            assert _same_bits(cons.stay_radius2, 20.0 * b / lam)
            assert _same_bits(cons.delta2, cons.mu**2 * b / lam)

    def test_t1_min_beyond_the_double_range_is_an_exact_int(self):
        # log(ratio) / lambda overflowed to inf, and math.ceil raised
        # OverflowError; T1_min is the int ceiling of the exact quotient
        args = (1.558e-292, 4.228e-15, 0.0, 9.546e-88, 3.595e296, 1)
        cons = constants(*args)
        assert type(cons.T1_min) is int and cons.T1_min > 2**1024
        log_ratio = math.log(cons.lam * args[4] / cons.b)
        steps = Fraction(cons.T1_min) * Fraction(cons.lam)
        assert math.isclose(float(steps), log_ratio, rel_tol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(st.floats(-300, 300), min_size=5, max_size=5),
        st.lists(st.booleans(), min_size=3, max_size=3),
        st.integers(0, 10**12),
    )
    def test_no_nan_on_finite_inputs(self, exponents, zeros, T2):
        c, eta, L, r, y0 = (10.0**e for e in exponents)
        L, r, y0 = (0.0 if zero else v for zero, v in zip(zeros, (L, r, y0)))
        d = constants(c, eta, L, r, y0, T2).as_dict()
        assert not any(isinstance(v, float) and math.isnan(v) for v in d.values()), d
        assert type(d["T1_min"]) is int and d["T1_min"] >= 0
        assert d["b"] >= 0 and 0 <= d["stay_radius2"] <= d["delta2"]

    def test_bounds_cli_when_lambda_overflows(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        theorem = {"c": 1e308, "eta": 1.0, "L": 0.0, "r": 1.0, "y0_dist2": 1.0, "T2": 1}
        path.write_text(json.dumps({"theorem": theorem}))
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        d = json.loads(out[out.index("\n{") + 1 :])
        assert d["lambda"] is None and d["T1_min"] == 1

    def test_bounds_cli_strict_json_when_a_square_overflows(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        theorem = {"c": 1.0, "eta": 1e200, "L": 0.0, "r": 0.0, "y0_dist2": 1.0, "T2": 1}
        path.write_text(json.dumps({"theorem": theorem}))
        assert main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        assert json.loads(out[out.index("\n{") + 1 :], parse_constant=reject)["lambda"] == 2e200

    @pytest.mark.parametrize("c, eta, L, r", _LITERAL_INPUTS)
    def test_literal_inputs_keep_the_power_form_bits(self, c, eta, L, r):
        self._check_power_form_bits(c, eta, L, r)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-170, 170), st.floats(-170, 170), st.floats(-170, 170), st.floats(-170, 170),
        st.booleans(), st.booleans(),
    )
    def test_power_form_bits_wherever_it_returns(self, lc, le, lL, lr, L_zero, r_zero):
        L = 0.0 if L_zero else 10.0**lL
        r = 0.0 if r_zero else 10.0**lr
        self._check_power_form_bits(10.0**lc, 10.0**le, L, r)

    @staticmethod
    def _check_power_form_bits(c, eta, L, r):
        # constants returns on every input; y0 = 0 keeps T1_min at 0
        cons = constants(c, eta, L, r, 0.0, 10)
        try:
            lam, b, limit = _power_form(c, eta, L, r)
        except (OverflowError, ZeroDivisionError):  # a square out of range
            return
        assert _same_bits(cons.lam, lam) and _same_bits(cons.b, b)
        limits = [1.0 / (2.0 * c)] + ([] if limit is None else [1.0 / (2.0 * L), limit])
        assert cons.eta_valid == (eta < min(limits))


class TestDivergenceThreshold:
    def test_quadratic_hand_value(self):
        assert divergence_threshold(1.0, 1.0, 1.0) == 2.0

    def test_above_threshold_expands(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 2.1, 20, [1.0])
        norms = np.abs(traj.xs[:, 0])
        assert np.all(norms[1:] > norms[:-1])
        assert norms[1] == pytest.approx(1.1, rel=1e-12)

    def test_below_threshold_contracts(self, quadratic_1d):
        traj = gd_run(quadratic_1d, 1.9, 20, [1.0])
        norms = np.abs(traj.xs[:, 0])
        assert np.all(norms[1:] < norms[:-1])

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            divergence_threshold(1.0, 1.0, 0.0)


class TestDriftCheck:
    def test_noiseless_quadratic_equality(self, quadratic_1d):
        eta = 0.1
        kz = NoiseKernel("zero", 0.0, 1)
        rep = drift_check(
            quadratic_1d, kz, eta, 1.0, 1.0, [1.7], [0.0], n=100, rng=RngStream(61)
        )
        # (1 - eta)^2 = 1 - (2 eta - eta^2) exactly
        assert abs(rep.estimate - rep.rhs) <= 1e-12
        assert rep.passed

    def test_at_target_noise_floor_only(self, quadratic_1d):
        k = NoiseKernel("uniform-ball", 1.0, 1)
        rep = drift_check(
            quadratic_1d, k, 0.1, 1.0, 1.0, [0.0], [0.0], n=20_000, rng=RngStream(62)
        )
        cons = constants(1.0, 0.1, 1.0, 1.0, 0.0, 1)
        assert rep.estimate <= cons.b + rep.ci_halfwidth
        assert rep.passed

    def test_validation(self, quadratic_1d):
        k = NoiseKernel("zero", 0.0, 1)
        with pytest.raises(ValueError):
            drift_check(quadratic_1d, k, 0.1, 1.0, 1.0, [1.0], [0.0], n=1)

    def test_understated_smoothness_raises(self, spiky_default):
        # L = 1 (the spiky objective's is 101) understates the reach bound
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError, match="declared range"):
            drift_check(
                spiky_default, k, 0.1, 0.3, 1.0, [0.4], spiky_default.target,
                n=5000, rng=RngStream(63),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_raises(self, spiky_default, bad):
        obj = poisoned(spiky_default, bad)
        k = NoiseKernel("uniform-ball", 1.0, 1)
        with pytest.raises(ValueError, match="declared range"):
            drift_check(obj, k, 0.1, 0.3, obj.smoothness, [0.4], obj.target, n=100, rng=RngStream(64))


def _stay_validate_loop(trajectories, cons, target):
    """Reference: the per-record loop that `stay_validate` replaced, over
    `sgd_run` records.  Returns the hit, stay and hit-and-stay fractions."""
    T, T2 = cons.T1_min, cons.T2
    hits = stays = boths = 0
    for traj in trajectories:
        if len(traj) < T + T2 + 1:
            raise ValueError(f"trajectory too short: {len(traj)} <= {T + T2}")
        tgt = np.asarray(target, dtype=float)
        ys = shadow_rows(traj.objective, traj.schedule, traj.xs)
        d2 = np.einsum("ij,ij->i", ys - tgt[None, :], ys - tgt[None, :])
        hit = d2[T] <= cons.stay_radius2
        stay = bool(np.all(d2[T : T + T2 + 1] <= cons.delta2))
        hits += hit
        stays += stay
        boths += hit and stay
    n = len(trajectories)
    return hits / n, stays / n, boths / n


def _fractions(rep):
    return rep.hit_fraction, rep.stay_fraction, rep.hit_and_stay_fraction


class TestStayValidate:
    def _runs(self, obj, sched, x0s, seed):
        """The lockstep ensemble on streams (seed, 1000 + i) and the
        `sgd_run` records of the same streams, which it replays bitwise."""
        x0s = np.asarray(x0s, dtype=float)
        result = run_lockstep_ensemble(obj, sched, x0s, seed)
        trajs = [sgd_run(obj, sched, x0, RngStream(seed, 1000 + i)) for i, x0 in enumerate(x0s)]
        return result, trajs

    def test_noiseless_quadratic_all_hit_and_stay(self, quadratic_1d):
        kz = NoiseKernel("zero", 0.0, 1)
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 20)
        sched = StepSchedule((Stage(0.1, cons.T1_min + 21, kz),))
        result, trajs = self._runs(quadratic_1d, sched, [[1.0 + 0.1 * i] for i in range(10)], 71)
        rep = stay_validate(result, cons, [0.0])
        assert _fractions(rep) == (1.0, 1.0, 1.0) == _stay_validate_loop(trajs, cons, [0.0])
        assert rep.n_trials == 10

    def test_expanding_regime_misses(self):
        obj = make_quadratic(1)
        k = NoiseKernel("uniform-ball", 0.1, 1)
        # constants computed at a sane eta, trajectories run at an
        # expanding one: nothing should remain inside the radii
        cons = constants(1.0, 0.1, 1.0, 0.1, 1e-4, 5)
        assert cons.T1_min == 0
        sched = StepSchedule((Stage(2.5, cons.T1_min + 6, k),))
        result, trajs = self._runs(obj, sched, [[1.0]] * 5, 72)
        rep = stay_validate(result, cons, [0.0])
        assert rep.hit_and_stay_fraction == 0.0
        assert _fractions(rep) == _stay_validate_loop(trajs, cons, [0.0])

    def test_noisy_spiky_partial_fractions_match_loop(self, spiky_default):
        # constants at r = 0.1 for a run at r = 3.1: only some trials land
        # inside the radii, and hit and stay pick different trials
        cons = constants(1.0, 0.1, 1.0, 0.1, 9.0, 20)
        sched = StepSchedule((Stage(0.1, cons.T1_min + 20, NoiseKernel("uniform-ball", 3.1, 1)),))
        x0s = draw_inits(20, 1, (-3.0, 3.0), 74)
        result, trajs = self._runs(spiky_default, sched, x0s, 74)
        rep = stay_validate(result, cons, spiky_default.target)
        assert 0.0 < rep.hit_and_stay_fraction < rep.hit_fraction < 1.0
        assert 0.0 < rep.stay_fraction < 1.0
        assert _fractions(rep) == _stay_validate_loop(trajs, cons, spiky_default.target)

    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy-spiky", "contracting-gd"])
    def test_slacks_are_the_inline_formulas(self, spiky_default, quadratic_1d, noisy):
        # noiseless GD on the quadratic contracts, so every row before T
        # (T1_min = 30 here) lies farther out than the window
        if noisy:
            obj, kernel = spiky_default, NoiseKernel("uniform-ball", 3.1, 1)
            cons = constants(1.0, 0.1, 1.0, 0.1, 9.0, 20)
        else:
            obj, kernel = quadratic_1d, NoiseKernel("zero", 0.0, 1)
            cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 20)
        sched = StepSchedule((Stage(0.1, cons.T1_min + 30, kernel),))
        result = run_lockstep_ensemble(obj, sched, draw_inits(20, 1, (-3.0, 3.0), 75), 75)
        rep = stay_validate(result, cons, obj.target)
        d2 = result.y_dist2_history(obj.target)
        T, T2 = cons.T1_min, cons.T2
        assert rep.stay_radius2_slack == float(d2[T].max() / cons.stay_radius2)
        assert rep.delta2_slack == float(d2[T : T + T2 + 1].max() / cons.delta2)
        if not noisy:
            assert T > 0 and d2[:T].max() > d2[T:].max()

    def test_window_ends_at_row_t_plus_t2(self, quadratic_1d):
        # GD at eta = 2.5 from 0.2 expands: d2[t] = 2.25**(t + 1) * 0.04
        # first exceeds delta^2 (about 2.72) at t = 5 = T + T2, the last row
        cons = constants(1.0, 0.1, 1.0, 0.1, 1e-4, 5)
        assert cons.T1_min == 0
        sched = StepSchedule((Stage(2.5, 5, NoiseKernel("zero", 0.0, 1)),))
        result, trajs = self._runs(quadratic_1d, sched, [[0.2]], 80)
        d2 = result.y_dist2_history([0.0])[:, 0]
        assert d2[4] <= cons.delta2 < d2[5]
        rep = stay_validate(result, cons, [0.0])
        assert rep.stay_fraction == 0.0
        assert _fractions(rep) == _stay_validate_loop(trajs, cons, [0.0])

    def test_zero_radii_give_infinite_slacks_without_warning(self, quadratic_1d):
        # noiseless constants (r = 0) have b = 0, so both radii are 0
        cons = constants(1.0, 0.1, 1.0, 0.0, 4.0, 20)
        sched = StepSchedule((Stage(0.1, 20, NoiseKernel("zero", 0.0, 1)),))
        result = run_lockstep_ensemble(quadratic_1d, sched, np.ones((2, 1)), 79)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = stay_validate(result, cons, [0.0])
        assert rep.stay_radius2_slack == rep.delta2_slack == math.inf
        assert rep.hit_and_stay_fraction == 0.0

    def test_divergence_inside_the_window_is_a_miss(self, quadratic_1d):
        # on f = x^2/2 with eta = 3, x_t = (-2)**t * 1e-3 starts inside the
        # radii and passes the cutoff at t = 30, inside the window [0, 40];
        # the trial at the minimum hits and stays
        cons = constants(1.0, 0.1, 1.0, 0.1, 1e-4, 40)
        assert cons.T1_min == 0
        sched = StepSchedule((Stage(3.0, 40, NoiseKernel("zero", 0.0, 1)),))
        result, trajs = self._runs(quadratic_1d, sched, [[1e-3], [0.0]], 76)
        assert result.diverged.tolist() == [True, False]
        rep = stay_validate(result, cons, [0.0])
        assert _fractions(rep) == (1.0, 0.5, 0.5)
        # the record of the diverged trial ends inside the window
        with pytest.raises(ValueError, match="too short"):
            _stay_validate_loop(trajs, cons, [0.0])

    def test_finals_only_result_rejected(self, quadratic_1d):
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 20)
        sched = StepSchedule((Stage(0.1, cons.T1_min + 21, NoiseKernel("zero", 0.0, 1)),))
        result = run_lockstep_ensemble(quadratic_1d, sched, np.ones((3, 1)), 77, keep_history=False)
        with pytest.raises(ValueError, match="kept no history"):
            stay_validate(result, cons, [0.0])

    def test_empty_ensemble_rejected(self, quadratic_1d):
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 20)
        sched = StepSchedule((Stage(0.1, cons.T1_min + 21, NoiseKernel("zero", 0.0, 1)),))
        result = run_lockstep_ensemble(quadratic_1d, sched, np.empty((0, 1)), 78)
        with pytest.raises(ValueError, match="at least one trial"):
            stay_validate(result, cons, [0.0])

    def test_short_trajectory_rejected(self, quadratic_1d):
        kz = NoiseKernel("zero", 0.0, 1)
        cons = constants(1.0, 0.1, 1.0, 0.5, 4.0, 50)
        sched = StepSchedule((Stage(0.1, 10, kz),))
        result = run_lockstep_ensemble(quadratic_1d, sched, np.ones((1, 1)), 73)
        with pytest.raises(ValueError, match="too short"):
            stay_validate(result, cons, [0.0])
