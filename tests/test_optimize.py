import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwqkd.channel import ChannelParams
from uwqkd.decoy import FLAG_NO_POSITIVE_KEY, evaluate_key_rate
from uwqkd.optimize import (
    _ZOOM,
    DeadChannelError,
    OptimizerConfig,
    _grid,
    distance_sweep,
    max_secure_distance,
    optimize_mu_nu,
)

FAST = OptimizerConfig(coarse_grid=32, refine_iterations=2)
# K and flags of the 0-90 m curves from the golden-section optimizer that the
# zoom refinement replaced
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_section_sweeps.json").read_text())


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
        bad = [
            ({"nu_min": math.nan}, "nu_min"),
            ({"mu_max": math.inf}, "mu_max"),
            ({"mu_max": math.nan}, "mu_max"),
            # an empty search box: the coarse mu axis starts at 2 nu_min
            ({"mu_max": 2e-4}, "mu_max"),
            ({"nu_min": 0.5}, "mu_max"),
        ]
        for kwargs, field in bad:
            with pytest.raises(ValueError, match=field):
                OptimizerConfig(**kwargs)


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

    def test_coarse_only(self, dark_only_params):
        # refine_iterations=0 returns a coarse-grid point
        cfg = OptimizerConfig(refine_iterations=0)
        res = optimize_mu_nu(dark_only_params.at_length(20.0), cfg)
        mus = np.geomspace(2e-4, 1.0, cfg.coarse_grid)
        assert res.mu in mus


class TestGridCache:
    def test_equal_configs_share_read_only_arrays(self):
        a, b = _grid(OptimizerConfig(coarse_grid=20)), _grid(OptimizerConfig(coarse_grid=20))
        assert a[0] is b[0] and a[1] is b[1] and a[2] is b[2]
        for arr in (a[0], a[1], *a[2][0]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("change", [{"mu_max": 2.0}, {"nu_min": 1e-3}, {"coarse_grid": 33}])
    def test_other_config_gets_its_own_grid(self, change):
        base = OptimizerConfig()
        cfg = replace(base, **change)
        mus, nus, zooms = _grid(cfg)
        assert not np.array_equal(mus, _grid(base)[0])
        assert np.array_equal(mus, np.geomspace(2 * cfg.nu_min, cfg.mu_max, cfg.coarse_grid))
        assert np.array_equal(nus, np.geomspace(cfg.nu_min, cfg.mu_max * (1 - 1e-9), cfg.coarse_grid))
        # half-widths start at one coarse log step and shrink 4x per round, 3 rounds per pass
        assert len(zooms) == 3 * cfg.refine_iterations
        for r, (zoom_mu, zoom_nu) in enumerate(zooms):
            np.testing.assert_allclose(zoom_mu, np.exp(np.log(mus[1] / mus[0]) / 4.0**r * _ZOOM), rtol=1e-14)
            np.testing.assert_allclose(zoom_nu, np.exp(np.log(nus[1] / nus[0]) / 4.0**r * _ZOOM), rtol=1e-14)

    def test_cached_call_gives_identical_result(self, flume_params):
        cfg = OptimizerConfig(coarse_grid=37, refine_iterations=2)
        _grid.cache_clear()
        first = optimize_mu_nu(flume_params.at_length(30.0), cfg)
        second = optimize_mu_nu(flume_params.at_length(30.0), cfg)
        assert _grid.cache_info().hits == 1 and _grid.cache_info().misses == 1
        assert second == first


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 120.0),  # past ~80 m most channels have no key
                st.floats(0.0, 0.04),
                st.floats(30.0, 3000.0),
                st.none() | st.floats(0.0, 0.1),
            ),
            min_size=1,
            max_size=10,  # more than one coarse-grid chunk
        )
    )
    def test_batch_equals_single_calls(self, specs):
        ps = [ChannelParams(length_m=L, e_det=e, dark_rate_hz=d) for L, e, d, _ in specs]
        overrides = [q for *_, q in specs]
        batch = optimize_mu_nu(ps, qber_override=overrides)
        assert batch == [optimize_mu_nu(p, qber_override=q) for p, q in zip(ps, overrides)]

    @pytest.mark.parametrize("q", [0.0, 0.02])
    def test_scalar_override_rejected(self, q):
        # a batch takes one override per channel, never one for all
        ps = [ChannelParams(), ChannelParams(length_m=10.0)]
        with pytest.raises(ValueError, match="one QBER override per channel"):
            optimize_mu_nu(ps, qber_override=q)

    def test_empty_batch(self):
        assert optimize_mu_nu([]) == []

    def test_sweep_is_one_batch(self, flume_params):
        lengths = [0.0, 30.5, 95.0]
        for pt in distance_sweep(flume_params, lengths):
            res = optimize_mu_nu(flume_params.at_length(pt.length_m))
            assert (pt.k_per_pulse, pt.mu_opt, pt.nu_opt, pt.flags) == (res.k_per_pulse, res.mu, res.nu, res.flags)

    @pytest.mark.parametrize("name,params", [("default", {}), ("e_det_0", {"e_det": 0.0})])
    def test_not_below_golden_section(self, name, params):
        rows = GOLDEN[name]
        curve = distance_sweep(ChannelParams(**params), [r[0] for r in rows])
        for pt, (length, k, flags) in zip(curve, rows):
            assert list(pt.flags) == flags, length
            assert (pt.k_per_pulse > 0) == (k > 0), length
            assert pt.k_per_pulse >= k * (1 - 1e-12), length


class TestDistanceSweep:
    def test_flume_lengths_decreasing(self, dark_only_params):
        curve = distance_sweep(dark_only_params, [0.5, 10.5, 20.5, 30.5], FAST)
        ks = [pt.k_per_pulse for pt in curve]
        assert all(b < a for a, b in zip(ks, ks[1:]))
        assert all(k > 0 for k in ks)

    def test_single_length(self, dark_only_params):
        curve = distance_sweep(dark_only_params, [5.0], FAST)
        assert len(curve) == 1

    def test_zero_length_is_max(self, dark_only_params):
        curve = distance_sweep(dark_only_params, [0.0, 1.0, 2.0, 20.0], FAST)
        assert curve[0].k_per_pulse == max(pt.k_per_pulse for pt in curve)

    def test_monotone_non_increasing(self, dark_only_params):
        curve = distance_sweep(dark_only_params, list(np.arange(0, 60, 5.0)), FAST)
        ks = [pt.k_per_pulse for pt in curve]
        assert all(b <= a + 1e-12 for a, b in zip(ks, ks[1:]))

    def test_empty_rejected(self, dark_only_params):
        with pytest.raises(ValueError):
            distance_sweep(dark_only_params, [])

    def test_unsorted_rejected(self, dark_only_params):
        with pytest.raises(ValueError):
            distance_sweep(dark_only_params, [2.0, 1.0])

    def test_curve_invariant(self, dark_only_params):
        # a repeated length is rejected too, so the points' lengths strictly increase
        with pytest.raises(ValueError, match="strictly increasing"):
            distance_sweep(dark_only_params, [1.0, 1.0])


def reference_cutoff(p, cfg, l_max=200.0, tol_m=0.1):
    """The same bisection, each probe decided by the full optimization."""

    def has_key(length):
        return optimize_mu_nu(p.at_length(length), cfg).k_per_pulse > 0

    if not has_key(0.0):
        raise DeadChannelError("channel dead at zero length")
    if has_key(l_max):
        return math.inf
    lo, hi = 0.0, l_max
    while hi - lo > tol_m:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if has_key(mid) else (lo, mid)
    return (lo + hi) / 2


class TestMaxSecureDistance:
    def test_dead_channel_rejected(self):
        p = ChannelParams(dark_rate_hz=1e9, detection_window_s=1e-9, e_det=0.0)
        with pytest.raises(DeadChannelError):
            max_secure_distance(p, FAST, l_max=50.0)

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"e_det": 0.0},
            {"e_det": 0.0, "bob_includes_detector": True},
            {"alpha_db_per_m": 0.3, "dark_rate_hz": 30.0},
            {"alpha_db_per_m": 1.2, "e_det": 0.03},
            {"dark_rate_hz": 3000.0, "f_ec": 1.5},
            {"e_det": 0.045, "dark_rate_hz": 3000.0},
            {"dark_rate_hz": 0.0, "e_det": 0.0},
        ],
    )
    def test_matches_full_optimization_bisection(self, params):
        p = ChannelParams(**params)
        assert max_secure_distance(p, FAST) == reference_cutoff(p, FAST)

    def test_zero_gain_probe_is_no_key(self):
        # the transmittance underflows to 0 before 6000 m; zero gain there
        # means no key, not a channel dead at 0 m
        p = ChannelParams(dark_rate_hz=0.0, e_det=0.0)
        d = max_secure_distance(p, l_max=6000.0)
        assert 5000 < d < 6000
        assert optimize_mu_nu(p.at_length(d - 1.0)).k_per_pulse > 0

    @pytest.fixture
    def probe_budget(self, monkeypatch):
        # a bisection that never stops fails here instead of hanging the suite
        import uwqkd.optimize as opt

        calls, inner = [0], opt.optimize_mu_nu

        def counted(*args, **kwargs):
            calls[0] += 1
            if calls[0] > 200:
                raise RuntimeError("bisection did not stop")
            return inner(*args, **kwargs)

        monkeypatch.setattr(opt, "optimize_mu_nu", counted)
        return calls

    def test_zero_tolerance_terminates(self, probe_budget):
        # bisection to tol_m = 0 stops once no float lies between lo and hi
        d = max_secure_distance(ChannelParams(), FAST, tol_m=0.0)
        assert probe_budget[0] < 100
        assert abs(d - max_secure_distance(ChannelParams(), FAST)) <= 0.1
        assert optimize_mu_nu(ChannelParams().at_length(math.nextafter(d, 0)), FAST).k_per_pulse > 0

    @pytest.mark.parametrize("tol_m", [-0.1, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol_m, probe_budget):
        with pytest.raises(ValueError, match="tol_m"):
            max_secure_distance(ChannelParams(), FAST, tol_m=tol_m)

    @pytest.mark.parametrize("l_max", [-5.0, 0.0, math.nan, math.inf])
    def test_bad_l_max_rejected(self, l_max, probe_budget):
        with pytest.raises(ValueError, match="l_max"):
            max_secure_distance(ChannelParams(), FAST, l_max=l_max)

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
