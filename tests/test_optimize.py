import math

import numpy as np
import pytest

from uwqkd.channel import ChannelParams
from uwqkd.decoy import FLAG_NO_POSITIVE_KEY, evaluate_key_rate
from uwqkd.optimize import (
    OptimizerConfig,
    RateCurve,
    RatePoint,
    distance_sweep,
    max_secure_distance,
    optimize_mu_nu,
)

FAST = OptimizerConfig(coarse_grid=32, refine_iterations=2)


def brute_grid_max(p, resolution=1e-3, mu_max=1.0, nu_min=1e-4):
    """Dense-grid oracle: best K over a uniform (mu, nu) lattice."""
    best = -math.inf
    mus = np.arange(resolution, mu_max + resolution / 2, resolution)
    for mu in mus:
        nus = np.arange(nu_min, mu, resolution)
        for nu in nus:
            k = evaluate_key_rate(p, float(mu), float(nu)).k_per_pulse
            best = max(best, k)
    return best


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.coarse_grid == 64 and cfg.refine_iterations == 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            OptimizerConfig(nu_min=0)
        with pytest.raises(ValueError):
            OptimizerConfig(coarse_grid=4)
        bad = {"nu_min": math.nan, "mu_range": (0.0, math.inf), "tolerance": math.nan}
        for field, value in bad.items():
            with pytest.raises(ValueError, match=field):
                OptimizerConfig(**{field: value})


class TestOptimizeMuNu:
    def test_lossless_channel_hits_mu_boundary(self):
        p = ChannelParams(
            alpha_db_per_m=0.0, eta_detector=1, eta_bob=1, dark_rate_hz=0, e_det=0.0
        )
        res = optimize_mu_nu(p)
        assert res.mu == pytest.approx(1.0, rel=0.02)
        # oracle: coarse uniform lattice at 2e-2 (K is smooth here)
        oracle = brute_grid_max(p, resolution=2e-2)
        assert res.k_per_pulse >= oracle - 1e-9

    def test_no_positive_key_at_100m(self, flume_params):
        res = optimize_mu_nu(flume_params.at_length(100.0))
        assert res.k_per_pulse == 0.0
        assert FLAG_NO_POSITIVE_KEY in res.flags

    def test_noiseless_channel_always_positive(self):
        p = ChannelParams(length_m=40.0, dark_rate_hz=0, e_det=0.0)
        assert optimize_mu_nu(p, FAST).k_per_pulse > 0

    def test_no_false_optimum(self, dark_only_params):
        rng = np.random.default_rng(11)
        for length in (0.5, 10.5, 30.5):
            p = dark_only_params.at_length(length)
            res = optimize_mu_nu(p)
            for _ in range(100):
                mu = rng.uniform(1e-3, 1.0)
                nu = rng.uniform(1e-4, mu * 0.999)
                assert res.k_per_pulse >= evaluate_key_rate(p, mu, nu).k_per_pulse - 1e-12

    def test_refinement_not_below_coarse(self, dark_only_params):
        p = dark_only_params.at_length(20.0)
        coarse = optimize_mu_nu(p, OptimizerConfig(refine_iterations=0))
        refined = optimize_mu_nu(p, OptimizerConfig(refine_iterations=3))
        assert refined.k_per_pulse >= coarse.k_per_pulse - 1e-15

    def test_deterministic(self, flume_params):
        p = flume_params.at_length(15.0)
        assert optimize_mu_nu(p) == optimize_mu_nu(p)


class TestDistanceSweep:
    def test_flume_lengths_decreasing(self, dark_only_params):
        curve = distance_sweep(dark_only_params, [0.5, 10.5, 20.5, 30.5], FAST)
        ks = [pt.k_per_pulse for pt in curve.points]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert all(k > 0 for k in ks)

    def test_single_length(self, dark_only_params):
        curve = distance_sweep(dark_only_params, [5.0], FAST)
        assert len(curve.points) == 1

    def test_zero_length_is_max(self, dark_only_params):
        curve = distance_sweep(dark_only_params, [0.0, 1.0, 2.0, 20.0], FAST)
        assert curve.points[0].k_per_pulse == max(pt.k_per_pulse for pt in curve.points)

    def test_monotone_non_increasing(self, dark_only_params):
        curve = distance_sweep(dark_only_params, list(np.arange(0, 60, 5.0)), FAST)
        ks = [pt.k_per_pulse for pt in curve.points]
        assert all(b <= a + 1e-12 for a, b in zip(ks, ks[1:]))

    def test_empty_rejected(self, dark_only_params):
        with pytest.raises(ValueError):
            distance_sweep(dark_only_params, [])

    def test_unsorted_rejected(self, dark_only_params):
        with pytest.raises(ValueError):
            distance_sweep(dark_only_params, [2.0, 1.0])

    def test_curve_invariant(self):
        with pytest.raises(ValueError):
            RateCurve(
                (
                    RatePoint(2.0, 0.1, 0.5, 0.1, ()),
                    RatePoint(1.0, 0.2, 0.5, 0.1, ()),
                )
            )


class TestMaxSecureDistance:
    def test_dead_channel_rejected(self):
        p = ChannelParams(dark_rate_hz=1e9, detection_window_s=1e-9, e_det=0.0)
        with pytest.raises(ValueError):
            max_secure_distance(p, FAST, l_max=50.0)

    def test_noiseless_unbounded(self):
        p = ChannelParams(dark_rate_hz=0, e_det=0.0)
        assert max_secure_distance(p, FAST, l_max=150.0) == math.inf

    def test_alpha_doubling_roughly_halves_cutoff(self, dark_only_params):
        d1 = max_secure_distance(dark_only_params, FAST)
        d2 = max_secure_distance(
            ChannelParams(alpha_db_per_m=2 * 0.57, e_det=0.0), FAST
        )
        assert d2 == pytest.approx(d1 / 2, rel=0.1)

    def test_monotone_in_noise(self, dark_only_params):
        base = max_secure_distance(dark_only_params, FAST)
        more_dark = max_secure_distance(
            ChannelParams(dark_rate_hz=3000.0, e_det=0.0), FAST
        )
        more_misalign = max_secure_distance(ChannelParams(e_det=0.02), FAST)
        more_loss = max_secure_distance(
            ChannelParams(alpha_db_per_m=0.8, e_det=0.0), FAST
        )
        assert more_dark < base
        assert more_misalign < base
        assert more_loss < base
