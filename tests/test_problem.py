"""Tests for the detection problem: covariances, error probability, penalty."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from wsnopt import problem as problem_module
from wsnopt.evo import Bounds, TrackedObjective
from wsnopt.grouping import dgsc_group
from wsnopt.problem import (
    PowerAllocationProblem,
    RAYLEIGH_UNIT_MEAN_SCALE,
    WsnConfig,
    build_signal_covariance,
    effective_noise_covariance,
    fusion_error_probability,
    monte_carlo_error_rate,
    q_function,
    sample_fading,
)


def evaluate_one(cfg, h, g, iteration):
    """Penalized value and power of one gain vector, as a batch of one."""
    g = np.asarray(g, dtype=float)
    values, _, powers = PowerAllocationProblem(cfg, h).batch(g[None, :], [iteration])
    return values[0], powers[0]


def gaussian_tail_oracle(x: float) -> float:
    """Independent Q(x) via numerical integration of the normal density."""
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), x, np.inf)
    return val


class TestConfig:
    def test_fields_are_what_a_case_varies(self):
        names = [f.name for f in dataclasses.fields(WsnConfig)]
        assert names == ["num_sensors", "correlation", "epsilon", "fading_seed"]

    def test_signal_power_at_10db(self):
        cfg = WsnConfig(num_sensors=3)
        assert cfg.signal_power == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_sensors=0),
            dict(num_sensors=2, correlation=1.0),
            dict(num_sensors=2, correlation=-0.1),
            dict(num_sensors=2, epsilon=0.0),
            dict(num_sensors=2, epsilon=0.5),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WsnConfig(**kwargs)


class TestSignalCovariance:
    def test_two_sensor_hand_value(self, monkeypatch):
        monkeypatch.setattr(WsnConfig, "sigma_v2", 4.0)
        cfg = WsnConfig(num_sensors=2, correlation=0.01)
        cov = build_signal_covariance(cfg)
        np.testing.assert_allclose(cov, [[4.0, 0.04], [0.04, 4.0]], atol=1e-15)

    def test_zero_correlation_gives_diagonal(self, monkeypatch):
        monkeypatch.setattr(WsnConfig, "sigma_v2", 3.0)
        cfg = WsnConfig(num_sensors=5, correlation=0.0)
        cov = build_signal_covariance(cfg)
        np.testing.assert_allclose(cov, 3.0 * np.eye(5))

    def test_symmetric_positive_definite(self):
        for rho in (0.0, 0.3, 0.9):
            cfg = WsnConfig(num_sensors=20, correlation=rho)
            cov = build_signal_covariance(cfg)
            np.testing.assert_allclose(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > 0.0

    def test_entries_decay_with_distance(self):
        cfg = WsnConfig(num_sensors=6, correlation=0.5)
        cov = build_signal_covariance(cfg)
        assert cov[0, 1] == pytest.approx(0.5)
        assert cov[0, 3] == pytest.approx(0.125)


class TestFading:
    def test_deterministic_given_seed(self):
        cfg = WsnConfig(num_sensors=50, fading_seed=7)
        np.testing.assert_array_equal(sample_fading(cfg), sample_fading(cfg))

    def test_sorted_descending(self):
        cfg = WsnConfig(num_sensors=200, fading_seed=1)
        h = sample_fading(cfg)
        assert np.all(np.diff(h) <= 0.0)
        assert np.all(h > 0.0)

    def test_unit_mean(self):
        cfg = WsnConfig(num_sensors=1_000_000, fading_seed=3)
        h = sample_fading(cfg)
        assert abs(h.mean() - 1.0) < 0.01

    def test_scale_constant(self):
        # Rayleigh mean is scale * sqrt(pi/2); unit mean pins the scale.
        assert RAYLEIGH_UNIT_MEAN_SCALE * math.sqrt(math.pi / 2.0) == pytest.approx(1.0)


class TestEffectiveNoiseCovariance:
    def test_single_sensor_hand_value(self):
        cfg = WsnConfig(num_sensors=1)
        cov = effective_noise_covariance(cfg, np.array([2.0]), np.array([1.0]))
        assert cov[0, 0] == pytest.approx(5.0)

    def test_zero_gain_leaves_receiver_noise(self, monkeypatch):
        monkeypatch.setattr(WsnConfig, "sigma_w2", 2.5)
        cfg = WsnConfig(num_sensors=4, correlation=0.4)
        cov = effective_noise_covariance(cfg, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(cov, 2.5 * np.eye(4))

    def test_positive_definite_for_random_gains(self):
        rng = np.random.default_rng(11)
        cfg = WsnConfig(num_sensors=12, correlation=0.6)
        h = sample_fading(cfg)
        for _ in range(10):
            g = rng.uniform(0.0, 15.0, size=12)
            cov = effective_noise_covariance(cfg, h, g)
            assert np.linalg.eigvalsh(cov).min() > 0.0


class TestQFunction:
    def test_at_zero(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_decile_point(self):
        assert abs(q_function(1.2816) - 0.1) < 1e-4

    def test_matches_integration_oracle(self):
        for x in (-2.0, -0.5, 0.3, 1.0, 2.5, 4.0):
            assert q_function(x) == pytest.approx(gaussian_tail_oracle(x), abs=1e-12)

    def test_symmetry_and_monotonicity(self):
        xs = np.linspace(-5.0, 5.0, 41)
        vals = q_function(xs)
        np.testing.assert_allclose(vals + q_function(-xs), 1.0, atol=1e-14)
        assert np.all(np.diff(vals) < 0.0)


class TestFusionErrorProbability:
    def test_single_sensor_hand_value(self):
        cfg = WsnConfig(num_sensors=1)
        pe = fusion_error_probability(cfg, np.array([1.0]), np.array([1.0]))
        # deflection = 10 * 1 / (1 + 1) = 5, so Pe = Q(0.5 * sqrt(5))
        assert pe == pytest.approx(gaussian_tail_oracle(0.5 * math.sqrt(5.0)), abs=1e-12)

    def test_zero_gain_is_coin_flip(self):
        cfg = WsnConfig(num_sensors=8, correlation=0.2)
        h = sample_fading(cfg)
        assert fusion_error_probability(cfg, h, np.zeros(8)) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "exponent,sigma_v2,sigma_w2", [(1.0, 1.0, 1.0), (2.5, 3.0, 0.5)]
    )
    @pytest.mark.parametrize("ell", [1, 2, 17, 300, 800])
    @pytest.mark.parametrize("rho", [0.0, 0.01, 0.5, 0.9, 0.99])
    def test_default_and_matrix_paths_agree(
        self, monkeypatch, rho, ell, exponent, sigma_v2, sigma_w2
    ):
        # Unequal noise variances, so a swapped sigma_v2/sigma_w2 in the
        # kernel shows.
        monkeypatch.setattr(WsnConfig, "sigma_v2", sigma_v2)
        monkeypatch.setattr(WsnConfig, "sigma_w2", sigma_w2)
        cfg = WsnConfig(num_sensors=ell, correlation=rho**exponent, fading_seed=ell)
        h = sample_fading(cfg)
        rng = np.random.default_rng(5)
        G = np.vstack(
            [
                rng.uniform(0.0, 15.0, size=(3, ell)),
                np.zeros(ell),
                rng.uniform(0.0, 1e-3, size=ell),
                np.where(rng.random(ell) < 0.5, 0.0, 15.0),
            ]
        )
        kernel = PowerAllocationProblem(cfg, h).deflections(G)
        for g, s in zip(G, kernel):
            reference = problem_module._deflection(cfg, h, g)
            assert abs(s - reference) <= 1e-11 * reference
            pd = fusion_error_probability(cfg, h, g)
            pm = fusion_error_probability(cfg, h, g, method="matrix")
            assert abs(pd - pm) < 1e-10

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_rows_spanning_several_chunks_equal_batches_of_one(self, rho):
        cfg = WsnConfig(num_sensors=300, correlation=rho, fading_seed=4)
        h = sample_fading(cfg)
        rows = 2 * (problem_module._CHUNK_ELEMENTS // 300) + 7
        G = np.random.default_rng(8).uniform(0.0, 15.0, size=(rows, 300))
        prob = PowerAllocationProblem(cfg, h)
        batch = prob.error_probabilities(G)
        for g, p in zip(G, batch):
            assert p == prob.error_probabilities(g[None, :])[0]

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_white_stack_is_evaluated_without_stack_sized_temporaries(self, rho):
        # Every temporary of the kernel is one chunk of rows, so the peak
        # stays far below the size of the stack itself; at rho > 0 that
        # covers the finiteness check and the tridiagonal solve's d, e and b
        # as well.
        cfg = WsnConfig(num_sensors=800, correlation=rho, fading_seed=4)
        prob = PowerAllocationProblem(cfg, sample_fading(cfg))
        G = np.random.default_rng(3).uniform(0.0, 15.0, size=(4096, 800))
        tracemalloc.start()
        try:
            prob.batch(G, np.ones(len(G)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < G.nbytes / 16

    def test_spectral_grouping_peak_memory_is_a_few_weight_matrices(self):
        # The probe phase works through one bounded buffer and the Laplacian
        # is built in place, so the peak is about two dim x dim matrices:
        # the weights and their submatrix copy, then that copy and eigh's.
        dim = 800
        cfg = WsnConfig(num_sensors=dim, correlation=0.0, epsilon=0.1, fading_seed=4)
        objective = TrackedObjective(PowerAllocationProblem(cfg), 5000)
        tracemalloc.start()
        try:
            dgsc_group(objective, rng=np.random.default_rng(2026))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * dim * dim * 8

    def test_cached_kernel_constants_survive_every_stack_size(self):
        # dptsv overwrites its inputs in place; a cached constant handed to it
        # would change every later result of the same problem.
        cfg = WsnConfig(num_sensors=300, correlation=0.5, fading_seed=4)
        h = sample_fading(cfg)
        chunk = problem_module._CHUNK_ELEMENTS // 300
        G = np.random.default_rng(12).uniform(0.0, 0.1, size=(chunk + 1, 300))
        reference = [fusion_error_probability(cfg, h, g, method="matrix") for g in G]
        prob = PowerAllocationProblem(cfg, h)
        for rows in (1, chunk - 1, chunk, chunk + 1, 1):
            p = prob.error_probabilities(G[:rows])
            fresh = PowerAllocationProblem(cfg, h).error_probabilities(G[:rows])
            assert p.tobytes() == fresh.tobytes()
            np.testing.assert_allclose(p, reference[:rows], rtol=0.0, atol=1e-10)

    def test_non_finite_gains_rejected_when_correlated(self):
        # NaN or inf times a zero coupling is NaN, so a non-finite gain would
        # spoil the later rows of its chunk; the dense path refused it too.
        cfg = WsnConfig(num_sensors=4, correlation=0.5)
        G = np.ones((3, 4))
        G[0, 2] = np.nan
        with pytest.raises(ValueError):
            PowerAllocationProblem(cfg, np.ones(4)).error_probabilities(G)

    @pytest.mark.parametrize("rho, sensors", [(0.0, 4), (0.5, 1)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gains_rejected_by_the_closed_form(self, rho, sensors, bad):
        # White noise, and a single sensor, take the closed form, which would
        # score the row as a feasible NaN or inf.
        cfg = WsnConfig(num_sensors=sensors, correlation=rho)
        G = np.ones((3, sensors))
        G[1, -1] = bad
        with pytest.raises(ValueError, match="gains must be finite"):
            PowerAllocationProblem(cfg, np.ones(sensors)).batch(G, np.ones(3))

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_gains_beyond_the_kernel_bound_rejected(self, rho):
        # A finite gain of 1e200 overflowed its square and scored NaN; the
        # one scan that checks finiteness rejects it, while gains at the
        # bound evaluate to finite values without a warning at any sign.
        cfg = WsnConfig(num_sensors=6, correlation=rho, fading_seed=3)
        prob = PowerAllocationProblem(cfg)
        bound = prob._gain_bound
        assert 1e50 < bound < 1e200
        for big in (1e200, -1e200, np.nextafter(bound, np.inf)):
            G = np.ones((3, 6))
            G[1, 4] = big
            with pytest.raises(ValueError, match="gains must be finite and at most"):
                prob.batch(G, np.ones(3))
            with pytest.raises(ValueError, match="gains must be finite and at most"):
                prob.error_probabilities(G)
        G = np.ones((3, 6))
        G[0, :] = bound
        G[1, :] = -bound
        values, feasible, powers = prob.batch(G, np.full(3, 1e6))
        assert np.isfinite(values).all() and np.isfinite(powers).all()
        assert not feasible[1] and values[1] > powers[1]

    def test_unknown_method_rejected(self):
        cfg = WsnConfig(num_sensors=3, correlation=0.5)
        for method in ("diagonal", "bogus"):
            with pytest.raises(ValueError):
                fusion_error_probability(cfg, np.ones(3), np.ones(3), method=method)

    def test_monotone_in_gains_for_white_noise(self):
        rng = np.random.default_rng(9)
        cfg = WsnConfig(num_sensors=10, correlation=0.0, fading_seed=2)
        h = sample_fading(cfg)
        for _ in range(20):
            g = rng.uniform(0.0, 10.0, size=10)
            bigger = g + rng.uniform(0.0, 3.0, size=10)
            assert fusion_error_probability(cfg, h, bigger) <= fusion_error_probability(
                cfg, h, g
            ) + 1e-15

    def test_crafted_gain_hits_target_error(self):
        # Invert the single-sensor closed form to land exactly on Pe = 0.2.
        cfg = WsnConfig(num_sensors=1)
        target_s = (2.0 * 0.8416212335729143) ** 2  # 2 * Q^{-1}(0.2)
        g2 = target_s / (cfg.signal_power - target_s)
        pe = fusion_error_probability(cfg, np.array([1.0]), np.array([math.sqrt(g2)]))
        assert pe == pytest.approx(0.2, abs=1e-9)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("rho,ell", [(0.0, 1), (0.0, 5), (0.5, 5), (0.5, 20)])
    def test_agrees_with_analytic(self, rho, ell):
        cfg = WsnConfig(num_sensors=ell, correlation=rho, fading_seed=ell + 1)
        h = sample_fading(cfg)
        rng = np.random.default_rng(1234 + ell)
        g = rng.uniform(0.0, 2.0, size=ell) / math.sqrt(ell)
        analytic = fusion_error_probability(cfg, h, g, method="matrix")
        n = 200_000
        estimate = monte_carlo_error_rate(cfg, h, g, n, np.random.default_rng(77))
        sigma = math.sqrt(analytic * (1.0 - analytic) / n)
        assert abs(estimate - analytic) <= 3.0 * sigma

    def test_deterministic_given_rng_seed(self):
        cfg = WsnConfig(num_sensors=3, correlation=0.3, fading_seed=0)
        h = sample_fading(cfg)
        g = np.full(3, 0.4)
        a = monte_carlo_error_rate(cfg, h, g, 10_000, np.random.default_rng(5))
        b = monte_carlo_error_rate(cfg, h, g, 10_000, np.random.default_rng(5))
        assert a == b

    def test_rejects_empty_sample(self):
        cfg = WsnConfig(num_sensors=2)
        with pytest.raises(ValueError):
            monte_carlo_error_rate(cfg, np.ones(2), np.ones(2), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which, message", [
        ("h", "channel amplitudes must be finite"), ("g", "gains must be finite")])
    def test_non_finite_inputs_rejected_before_arithmetic(self, rho, bad, which, message):
        # At rho=0 an inf amplitude times the white covariance's zeros warned
        # (an error under the package's warning filter) before cholesky failed.
        cfg = WsnConfig(num_sensors=6, correlation=rho, epsilon=0.05, fading_seed=3)
        inputs = {"h": sample_fading(cfg), "g": np.full(6, 2.0)}
        inputs[which][2] = bad
        with pytest.raises(ValueError, match=message):
            effective_noise_covariance(cfg, inputs["h"], inputs["g"])
        with pytest.raises(ValueError, match=message):
            monte_carlo_error_rate(cfg, inputs["h"], inputs["g"], 100, np.random.default_rng(0))


class TestPenalty:
    def test_total_power(self):
        cfg = WsnConfig(num_sensors=2)
        assert evaluate_one(cfg, np.ones(2), [3.0, 4.0], 1)[1] == pytest.approx(25.0)
        cfg = WsnConfig(num_sensors=10)
        assert evaluate_one(cfg, np.ones(10), np.zeros(10), 1)[1] == 0.0

    def test_constraint_margin_sign(self):
        cfg = WsnConfig(num_sensors=5, epsilon=0.1, fading_seed=4)
        prob = PowerAllocationProblem(cfg)
        assert prob.error_probability(np.zeros(5)) - cfg.epsilon == pytest.approx(0.4)
        assert prob.error_probability(np.full(5, 10.0)) - cfg.epsilon < 0.0

    def test_stage_boundaries(self):
        # Feasible in error probability; the only violation is one gain at -v.
        cfg = WsnConfig(num_sensors=3, epsilon=0.1, fading_seed=1)
        h = sample_fading(cfg)
        stages = [
            (0.05, 10.0 * 0.05),
            (0.1, 10.0 * 0.1),
            (0.100001, 100.0 * 0.100001),
            (0.999, 100.0 * 0.999),
            (1.0, 100.0),
            (1.5, 300.0 * 1.5**2),
        ]
        for v, penalty in stages:
            g = np.array([8.0, 8.0, -v])
            assert PowerAllocationProblem(cfg, h).error_probability(g) - cfg.epsilon < 0.0
            for iteration in (1, 3):
                value, power = evaluate_one(cfg, h, g, iteration)
                assert value == power + iteration * penalty

    def test_zero_gain_penalty_hand_value(self):
        # At the origin the power is zero and the only violation is the
        # error margin 0.5 - epsilon = 0.4, in the middle stage.
        cfg = WsnConfig(num_sensors=6, epsilon=0.1, fading_seed=8)
        h = sample_fading(cfg)
        assert evaluate_one(cfg, h, np.zeros(6), 1)[0] == pytest.approx(40.0)
        assert evaluate_one(cfg, h, np.zeros(6), 7)[0] == pytest.approx(280.0)

    def test_feasible_point_is_exactly_power(self):
        cfg = WsnConfig(num_sensors=4, epsilon=0.1, fading_seed=3)
        h = sample_fading(cfg)
        g = np.full(4, 5.0)
        assert PowerAllocationProblem(cfg, h).error_probability(g) - cfg.epsilon < 0.0
        value, power = evaluate_one(cfg, h, g, 123)
        assert value == power
        assert power == float(g @ g)

    def test_negative_gain_terms(self):
        # Feasible in error probability but one gain is negative by 0.05:
        # adds iteration * 10 * 0.05 on top of the power.
        cfg = WsnConfig(num_sensors=3, epsilon=0.1, fading_seed=1)
        h = sample_fading(cfg)
        g = np.array([8.0, 8.0, -0.05])
        expected = float(g @ g) + 4 * 10.0 * 0.05
        assert evaluate_one(cfg, h, g, 4)[0] == pytest.approx(expected)

    def test_large_violation_squared(self):
        cfg = WsnConfig(num_sensors=3, epsilon=0.1, fading_seed=1)
        h = sample_fading(cfg)
        g = np.array([8.0, 8.0, -1.5])
        expected = float(g @ g) + 2 * 300.0 * 1.5**2
        assert evaluate_one(cfg, h, g, 2)[0] == pytest.approx(expected)


class TestProblemBatch:
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_batch_matches_scalar(self, rho):
        cfg = WsnConfig(num_sensors=7, correlation=rho, epsilon=0.05, fading_seed=2)
        prob = PowerAllocationProblem(cfg)
        rng = np.random.default_rng(21)
        G = rng.uniform(-1.0, 15.0, size=(9, 7))
        iters = np.arange(1, 10, dtype=float)
        values, feasible, powers = prob.batch(G, iters)
        for k in range(9):
            value, power = evaluate_one(cfg, prob.fading, G[k], iters[k])
            assert values[k] == value
            assert powers[k] == power
            is_feasible = prob.error_probability(G[k]) - cfg.epsilon <= 0.0 and np.all(G[k] >= 0.0)
            assert feasible[k] == is_feasible

    def test_feasible_rows_equal_power_exactly(self):
        cfg = WsnConfig(num_sensors=5, epsilon=0.1, fading_seed=6)
        prob = PowerAllocationProblem(cfg)
        G = np.full((3, 5), 6.0)
        values, feasible, powers = prob.batch(G, np.array([50.0, 60.0, 70.0]))
        assert feasible.all()
        np.testing.assert_array_equal(values, powers)

    def test_dimension_and_bounds(self):
        cfg = WsnConfig(num_sensors=13)
        prob = PowerAllocationProblem(cfg)
        assert prob.dimension == 13
        assert prob.bounds == Bounds(0.0, 15.0)

    def test_fading_length_checked(self):
        cfg = WsnConfig(num_sensors=4)
        with pytest.raises(ValueError):
            PowerAllocationProblem(cfg, fading=np.ones(3))

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, rho, bad):
        # The kernel would score every row NaN and infeasible, with warnings.
        cfg = WsnConfig(num_sensors=6, correlation=rho, epsilon=0.05, fading_seed=3)
        h = sample_fading(cfg)
        h[2] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            PowerAllocationProblem(cfg, h)
        for method in ("auto", "matrix"):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                fusion_error_probability(cfg, h, np.full(6, 2.0), method=method)
