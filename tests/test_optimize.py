import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from uwqkd.channel import ChannelParams, ZeroGainError, background_yield, gain_stats, transmittance
from uwqkd.decoy import (
    FLAG_NO_POSITIVE_KEY,
    NonFiniteBoundsError,
    _channel_columns,
    _key_rate_arrays,
    _nu_stage,
    estimate_single_photon,
    evaluate_key_rate,
)
from uwqkd.optimize import (
    _CHUNK_POINTS,
    _ZOOM,
    DeadChannelError,
    OptimizerConfig,
    _grid,
    _k_grid,
    _row_best,
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


def grid_2d_search(ps, cfg=OptimizerConfig(), qber=None):
    """The (mu, nu) search that the search over mu alone replaced: the best
    point of a log-uniform coarse grid in (mu, nu), then 9 x 9 zoom grids in
    (log mu, log nu) with the same schedule; first maxima win."""
    cols = _channel_columns(ps, qber)
    mus = np.geomspace(2 * cfg.nu_min, cfg.mu_max, cfg.coarse_grid)
    nus = np.geomspace(cfg.nu_min, cfg.mu_max * (1 - 1e-9), cfg.coarse_grid)
    k = _k_grid(_nu_stage(cols[:, :, None, None], nus[None, :]), mus[:, None]).reshape(len(ps), -1)
    j = np.argmax(k, axis=1)
    kb, mu, nu = k[np.arange(len(ps)), j], mus[j // nus.size], nus[j % nus.size]
    live = np.flatnonzero(kb > 0)
    c, m, v, kb = cols[:, live, None, None], mu[live], nu[live], kb[live]
    at = np.arange(live.size)
    steps = np.log([mus[1] / mus[0], nus[1] / nus[0]])
    for r in range(3 * cfg.refine_iterations):
        half = steps / 4.0**r
        mz = np.clip(m[:, None] * np.exp(half[0] * _ZOOM), mus[0], mus[-1])
        vz = np.clip(v[:, None] * np.exp(half[1] * _ZOOM), nus[0], nus[-1])
        kz = _k_grid(_nu_stage(c, vz[:, None, :]), mz[:, :, None]).reshape(live.size, _ZOOM.size**2)
        j = np.argmax(kz, axis=1)
        up = kz[at, j] >= kb
        kb = np.where(up, kz[at, j], kb)
        m, v = np.where(up, mz[at, j // _ZOOM.size], m), np.where(up, vz[at, j % _ZOOM.size], v)
    mu[live], nu[live] = m, v
    return evaluate_key_rate(ps, mu, nu, qber)


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
            # counts must be ints: 1.5 passes would run 5 zoom rounds, and a float grid
            # would fail later inside np.geomspace
            ({"refine_iterations": 1.5}, "refine_iterations"),
            ({"refine_iterations": True}, "refine_iterations"),
            ({"coarse_grid": 64.0}, "coarse_grid"),
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
        assert a[0] is b[0] and a[1] is b[1]
        for arr in (a[0], *a[1]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("change", [{"mu_max": 2.0}, {"nu_min": 1e-3}, {"coarse_grid": 33}])
    def test_other_config_gets_its_own_grid(self, change):
        base = OptimizerConfig()
        cfg = replace(base, **change)
        mus, zooms = _grid(cfg)
        assert not np.array_equal(mus, _grid(base)[0])
        assert np.array_equal(mus, np.geomspace(2 * cfg.nu_min, cfg.mu_max, cfg.coarse_grid))
        # half-widths start at one coarse log step and shrink 4x per round, 3 rounds per pass
        assert len(zooms) == 3 * cfg.refine_iterations
        for r, zoom in enumerate(zooms):
            np.testing.assert_allclose(zoom, np.exp(np.log(mus[1] / mus[0]) / 4.0**r * _ZOOM), rtol=1e-14)

    def test_cached_call_gives_identical_result(self, flume_params):
        cfg = OptimizerConfig(coarse_grid=37, refine_iterations=2)
        _grid.cache_clear()
        first = optimize_mu_nu(flume_params.at_length(30.0), cfg)
        second = optimize_mu_nu(flume_params.at_length(30.0), cfg)
        assert _grid.cache_info().hits == 1 and _grid.cache_info().misses == 1
        assert second == first


# Random channels on which the search over mu alone must match the (mu, nu)
# one.  Both hold only where K is non-increasing in nu, as computed:
# - the transmittance is at least 1e-300; below it the bounds' products go
#   subnormal and the nu_min row can be non-finite while larger nu is not;
# - Y0 <= exp(-eta mu_max), so ``_gain_qber`` never caps the signal gain at
#   1 - Y0; a capped gain is no Poisson mixture, and a decoy near mu can win;
# - nu_min >= 1e-4; at 1e-5 and below, where Y0 nu dwarfs the decoy's signal
#   gain, rounding made K rise along nu by up to 7e-4 relative.
channels = st.builds(
    ChannelParams,
    alpha_db_per_m=st.floats(0, 2),
    # live and dead channels, down to a transmittance that underflows to 0
    length_m=st.sampled_from([0.0, 30.0]) | st.floats(0, 400) | st.floats(0, 6000),
    eta_detector=st.floats(0.01, 1),
    eta_bob=st.floats(0.01, 1),
    dark_rate_hz=st.sampled_from([0.0, 300.0]) | st.floats(0, 1e8) | st.floats(0, 1e9),
    e_det=st.floats(0, 0.3),
    f_ec=st.floats(1, 1.5),
)
searches = st.builds(
    OptimizerConfig,
    mu_max=st.sampled_from([1.0, 0.5, 2.0]),
    nu_min=st.sampled_from([1e-4, 1e-3]),
    coarse_grid=st.sampled_from([64, 16]),
    refine_iterations=st.sampled_from([3, 1, 0]),
)


def in_range(p, mu_max):
    eta = transmittance(p)
    return eta >= 1e-300 and background_yield(p) <= math.exp(-eta * mu_max)


class TestSearchOverMuAlone:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(channels, st.none() | st.just(0.0) | st.floats(0, 0.1)), min_size=1, max_size=12),
        searches,
    )
    def test_matches_search_over_mu_and_nu(self, specs, cfg):
        specs = [(p, q) for p, q in specs if in_range(p, cfg.mu_max)]
        assume(specs)
        ps, qs = [p for p, _ in specs], [q for _, q in specs]
        assert optimize_mu_nu(ps, cfg, qs) == grid_2d_search(ps, cfg, qs)

    @settings(max_examples=300, deadline=None)
    @given(channels, st.none() | st.floats(0, 0.1), st.integers(0, 63), searches)
    def test_k_non_increasing_in_nu(self, p, q, i, cfg):
        # a row of the (mu, nu) grid that ``grid_2d_search`` starts from
        mus = _grid(cfg)[0]
        mu = mus[i % mus.size]
        assume(in_range(p, cfg.mu_max))
        nus = np.geomspace(cfg.nu_min, cfg.mu_max * (1 - 1e-9), cfg.coarse_grid)
        k = _k_grid(_nu_stage(_channel_columns([p], [q]), nus[nus < mu]), mu)
        assert np.all(np.diff(k) <= 0), k

    def test_kernel_calls_stay_under_chunk(self, flume_params, monkeypatch):
        import uwqkd.optimize as opt

        points, inner = [], opt._k_grid

        def counted(stage, mu):
            points.append(np.broadcast(stage[0], mu).size)
            return inner(stage, mu)

        monkeypatch.setattr(opt, "_k_grid", counted)
        ps = [flume_params.at_length(x) for x in np.linspace(0, 60, 301)]
        batch = optimize_mu_nu(ps)
        # 301 x 64 coarse points need three calls
        assert len(points) > 3 and max(points) <= _CHUNK_POINTS
        monkeypatch.undo()
        assert batch[::50] == [optimize_mu_nu(p) for p in ps[::50]]

    def test_nu_stage_built_once_per_search(self, flume_params, monkeypatch):
        import uwqkd.decoy as decoy
        import uwqkd.optimize as opt

        shapes, inner = [], decoy._nu_stage

        def counted(cols, nu):
            stage = inner(cols, nu)
            shapes.append(stage.shape)
            return stage

        monkeypatch.setattr(decoy, "_nu_stage", counted)
        monkeypatch.setattr(opt, "_nu_stage", counted)
        ps = [flume_params.at_length(x) for x in np.linspace(0, 60, 301)]
        optimize_mu_nu(ps)
        # the search's (coarse row and every zoom round) and the closing evaluate_key_rate's
        assert len(shapes) <= 2 and all(s[1:] == (301,) for s in shapes)

    def test_non_finite_row_raises_naming_mu_and_nu(self):
        # at 5589.84 m the transmittance is ~4e-320 and K is non-finite on the
        # whole nu_min row; outside a cutoff probe that is an error, not "no key"
        p = ChannelParams(dark_rate_hz=0.0, e_det=0.0, length_m=5589.84)
        with pytest.raises(NonFiniteBoundsError, match=r"not finite at mu=0\.0002, nu=0\.0001"):
            optimize_mu_nu(p)


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


def bisect_cutoff(has_key, l_max, tol_m):
    """Bisection of [0, l_max] with one probe at a time, stopping at tol_m or
    once no float is left strictly between lo and hi."""
    if not has_key(0.0):
        raise DeadChannelError("channel dead at zero length")
    if has_key(l_max):
        return math.inf
    lo, hi = 0.0, l_max
    while hi - lo > tol_m and lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if has_key(mid) else (lo, mid)
    return (lo + hi) / 2


def sequential_cutoff(p, cfg=None, l_max=200.0, tol_m=0.1):
    """The cutoff search that the batched one replaced: one coarse-row
    optimization per probe, zero gain or a non-finite nu_min row meaning no key."""
    coarse = replace(cfg or OptimizerConfig(), refine_iterations=0)

    def has_key(length):
        try:
            return optimize_mu_nu(p.at_length(length), coarse).k_per_pulse > 0
        except (ZeroGainError, NonFiniteBoundsError):
            return False

    return bisect_cutoff(has_key, l_max, tol_m)


def reference_cutoff(p, cfg, l_max=200.0, tol_m=0.1):
    """The same bisection, each probe decided by the full optimization."""
    return bisect_cutoff(lambda x: optimize_mu_nu(p.at_length(x), cfg).k_per_pulse > 0, l_max, tol_m)


def cutoff_or_error(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except DeadChannelError:
        return DeadChannelError


# live channels, dead ones (dark rates up to 1e8 Hz, e_det up to 0.3) and
# dark-free ones whose transmittance underflows to zero gain before 6000 m
cutoff_channels = st.builds(
    ChannelParams,
    alpha_db_per_m=st.floats(0.05, 2),
    eta_detector=st.floats(0.01, 1),
    eta_bob=st.floats(0.01, 1),
    dark_rate_hz=st.sampled_from([0.0, 300.0]) | st.floats(0, 1e4) | st.floats(0, 1e8),
    e_det=st.sampled_from([0.0, 0.03]) | st.floats(0, 0.3),
)


class TestBatchedCutoff:
    @settings(max_examples=100, deadline=None)
    @given(
        cutoff_channels,
        st.sampled_from([OptimizerConfig(), FAST]),
        st.sampled_from([50.0, 200.0, 6000.0]),
        st.sampled_from([0.0, 1e-3, 0.1]),
    )
    def test_matches_sequential_bisection(self, p, cfg, l_max, tol_m):
        got = cutoff_or_error(max_secure_distance, p, cfg, l_max=l_max, tol_m=tol_m)
        assert got == cutoff_or_error(sequential_cutoff, p, cfg, l_max=l_max, tol_m=tol_m)

    @pytest.mark.parametrize(
        "params,l_max",
        [({}, 200.0), ({"dark_rate_hz": 0.0, "e_det": 0.0}, 6000.0), ({"dark_rate_hz": 1e8}, 50.0)],
    )
    @pytest.mark.parametrize("tol_m", [0.0, 1e-3, 0.1])
    def test_known_channels_match_sequential_bisection(self, params, l_max, tol_m):
        p = ChannelParams(**params)
        got = cutoff_or_error(max_secure_distance, p, l_max=l_max, tol_m=tol_m)
        assert got == cutoff_or_error(sequential_cutoff, p, l_max=l_max, tol_m=tol_m)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(cutoff_channels, st.floats(0, 400), st.none() | st.floats(0, 0.1)),
            min_size=1,
            max_size=17,  # a first cutoff batch: 0 m, l_max and 15 midpoints
        ),
        st.sampled_from([OptimizerConfig(), FAST]),
    )
    # the flume channel's first cutoff batch: live up to ~78 m, dead beyond
    @example([(ChannelParams(), x, None) for x in np.linspace(0.0, 200.0, 17)], OptimizerConfig())
    def test_coarse_batch_is_exact_per_channel(self, specs, cfg):
        # mixes live and dead lengths; the batched cutoff is exact because of this
        coarse = replace(cfg, refine_iterations=0)
        ps, qs = [p.at_length(x) for p, x, _ in specs], [q for *_, q in specs]
        alone = [optimize_mu_nu(p, coarse, q) for p, q in zip(ps, qs)]
        batch = optimize_mu_nu(ps, coarse, qs)
        assert [(r.k_per_pulse, r.mu) for r in batch] == [(r.k_per_pulse, r.mu) for r in alone]

    @pytest.fixture
    def calls(self, monkeypatch):
        import uwqkd.optimize as opt

        calls, inner = [], opt.optimize_mu_nu

        def counted(ps, *args, **kwargs):
            calls.append(len(ps))
            return inner(ps, *args, **kwargs)

        monkeypatch.setattr(opt, "optimize_mu_nu", counted)
        return calls

    def test_flume_cutoff_takes_few_batches(self, flume_params, calls):
        # 11 bisection steps at the defaults: batches of 17, 15 and 7 probes
        d = max_secure_distance(flume_params)
        assert 1 <= len(calls) <= 3
        assert d == sequential_cutoff(flume_params)

    def test_zero_gain_batch_probes_alone(self, calls):
        # l_max lies where the transmittance underflows to zero gain, so the
        # first batch raises and the lengths the bisection reaches are probed
        # one by one; the one-probe-per-call search makes 18 calls here
        p = ChannelParams(dark_rate_hz=0, e_det=0)
        d = max_secure_distance(p, l_max=6000.0)
        assert calls[:2] == [17, 1] and len(calls) <= 18
        assert d == sequential_cutoff(p, l_max=6000.0)


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


class TestKernelOperands:
    """``_row_best`` hands ``_k_grid`` stage rows repeated to the chunk's shape,
    and the kernel holds its own ``np.errstate``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(channels, st.none() | st.just(0.0) | st.floats(0, 0.1)), min_size=1, max_size=8),
        st.integers(1, 300),
        # 4097 points leave room for one channel per chunk; 300 x 64 points are three chunks
        st.sampled_from([1, 9, 64, 4097]),
        st.integers(0, 2**32 - 1),
    )
    def test_row_best_equals_argmax_on_broadcast_batch(self, specs, n, points, seed):
        ps, qs = [p for p, _ in specs], [q for _, q in specs]
        ps, qs = (ps * n)[:n], (qs * n)[:n]
        nu = 1e-4
        stage = _nu_stage(_channel_columns(ps, qs), nu)
        if points == 64:  # the coarse row, as optimize_mu_nu passes it
            mu = np.broadcast_to(_grid(OptimizerConfig())[0], (n, points))
        else:  # log-uniform from below nu (invalid points) to 1
            mu = np.exp(np.random.default_rng(seed).uniform(math.log(nu / 2), 0.0, (n, points)))
        k = _k_grid(stage[:, :, None], mu)
        j = np.argmax(k, axis=1)
        at = np.arange(n)
        k_best, mu_best = _row_best(stage, mu)
        assert k_best.tobytes() == k[at, j].tobytes()
        assert mu_best.tobytes() == mu[at, j].tobytes()

    # e^mu overflows at mu >= 710, and r (mu - nu) underflows at nu = 1e-300 and 1e-200
    @pytest.mark.parametrize("mu,nu,finite", [(710.0, 1e-4, False), (1e300, 1e-4, False),
                                              (1.0, 1e-300, True), (0.5, 1e-200, True)])
    def test_no_floating_point_warning(self, mu, nu, finite, flume_params):
        # numpy warns on underflow too here, and pytest turns warnings into errors
        with np.errstate(all="warn"):
            k, _, _ = _key_rate_arrays(_nu_stage(_channel_columns([flume_params]), nu), np.array([mu]))
            assert np.isfinite(k).all() == finite
            stats = gain_stats(flume_params, mu, nu)
            if finite:
                estimate_single_photon(stats, mu, nu)
            else:
                with pytest.raises(NonFiniteBoundsError):
                    estimate_single_photon(stats, mu, nu)
