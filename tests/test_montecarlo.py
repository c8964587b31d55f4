import sys
import threading
import weakref

import numpy as np
import pytest

from uwqkd import montecarlo
from uwqkd.channel import ChannelParams, background_yield, gain_stats, transmittance
from uwqkd.montecarlo import BLOCK_SIZE, simulate_session, within_model_band


class TestSimulateSession:
    def test_deterministic_given_seed(self, flume_params):
        a = simulate_session(flume_params.at_length(5.0), 0.5, 200_000, 123)
        b = simulate_session(flume_params.at_length(5.0), 0.5, 200_000, 123)
        assert a == b

    def test_seed_changes_stream(self, flume_params):
        a = simulate_session(flume_params.at_length(5.0), 0.5, 200_000, 1)
        b = simulate_session(flume_params.at_length(5.0), 0.5, 200_000, 2)
        assert a != b

    def test_counts_nested(self, flume_params):
        s = simulate_session(flume_params.at_length(10.5), 0.5, 500_000, 9)
        assert s.errors <= s.sifted <= s.detections <= s.pulses_sent

    def test_bright_lossless_channel(self):
        p = ChannelParams(
            alpha_db_per_m=0.0, eta_detector=1, eta_bob=1, dark_rate_hz=0, e_det=0.0
        )
        s = simulate_session(p, 20.0, 100_000, 0)
        assert s.e_hat == 0.0
        assert s.q_hat == pytest.approx(1.0, abs=1e-4)

    def test_vacuum_only(self):
        p = ChannelParams(dark_rate_hz=0)
        s = simulate_session(p, 0.0, 10_000, 0)
        assert s.detections == 0
        assert s.e_hat is None

    def test_zero_pulses_rejected(self, flume_params):
        with pytest.raises(ValueError):
            simulate_session(flume_params, 0.5, 0, 0)

    def test_sifting_fraction_near_half(self, flume_params):
        s = simulate_session(flume_params.at_length(1.0), 0.5, 1_000_000, 3)
        frac = s.sifted / s.detections
        se = np.sqrt(0.25 / s.detections)
        assert abs(frac - 0.5) <= 4 * se

    def test_dark_only_clicks_are_random(self):
        # eta effectively zero: QBER driven entirely by dark counts
        p = ChannelParams(alpha_db_per_m=10.0, length_m=30.0, dark_rate_hz=1e6, e_det=0.0)
        s = simulate_session(p, 0.1, 2_000_000, 4)
        assert s.e_hat == pytest.approx(0.5, abs=4 * s.e_se)


class TestModelAgreement:
    def test_flume_channel(self, flume_params):
        p = flume_params.at_length(10.5)
        s = simulate_session(p, 0.5, 10**6, 42)
        q_model = gain_stats(p, 0.5, 0.0).q_mu
        assert abs(s.q_hat - q_model) <= 4 * s.q_se
        assert within_model_band(s, p, 0.5)

    def test_randomized_channels(self):
        rng = np.random.default_rng(77)
        for i in range(8):
            p = ChannelParams(
                alpha_db_per_m=rng.uniform(0.1, 1.0),
                length_m=rng.uniform(0, 15),
                dark_rate_hz=rng.uniform(0, 1e4),
                e_det=rng.uniform(0.005, 0.1),
            )
            mu = rng.uniform(0.1, 1.0)
            s = simulate_session(p, mu, 10**6, 1000 + i)
            assert within_model_band(s, p, mu), (p, mu)


class TestEstimate:
    def test_arithmetic(self, flume_params):
        s = simulate_session(flume_params.at_length(10.5), 0.5, 100_000, 7)
        assert s.q_hat == s.detections / s.pulses_sent
        assert s.e_hat == s.errors / s.sifted

    def test_no_detections(self):
        s = simulate_session(ChannelParams(dark_rate_hz=0), 0.0, 1000, 0)
        assert s.sifted == 0
        assert s.e_hat is None and s.e_se is None

    def test_half_errors(self):
        # dark counts only: each sifted click is a coin flip
        p = ChannelParams(alpha_db_per_m=10.0, length_m=30.0, dark_rate_hz=1e6, e_det=0.0)
        s = simulate_session(p, 0.1, 200_000, 5)
        assert s.e_hat == s.errors / s.sifted
        assert s.e_hat == pytest.approx(0.5, abs=4 * s.e_se)


def serial_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) from the one-thread per-block loop the threaded
    simulate_session replaced, kept as its oracle."""
    eta = transmittance(p)
    y0 = background_yield(p)
    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        n_phot = rng.poisson(mu, size)
        survivors = rng.binomial(n_phot, eta)
        signal = survivors > 0
        dark = rng.random(size) < y0
        click = signal | dark
        basis_match = rng.integers(0, 2, size) == rng.integers(0, 2, size)
        flip = rng.random(size)
        wrong = np.where(signal, flip < p.e_det, flip < 0.5)
        sift = click & basis_match
        detections += int(click.sum())
        sifted += int(sift.sum())
        errors += int((sift & wrong).sum())
    return detections, sifted, errors


def counts(s):
    return s.detections, s.sifted, s.errors


ORACLE_CHANNELS = {
    "flume": (ChannelParams(e_det=0.01).at_length(10.5), 0.5),
    "vacuum": (ChannelParams(), 0.0),
    "lossless": (ChannelParams(alpha_db_per_m=0.0, eta_detector=1, eta_bob=1, e_det=0.02), 0.8),
    "dark_dominated": (ChannelParams(length_m=20.0, dark_rate_hz=9.5e8), 0.3),
}


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: n)


class TestThreadedBlocks:
    @pytest.mark.parametrize("n_pulses", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                          5 * BLOCK_SIZE + 7, 10**6])
    @pytest.mark.parametrize("channel", sorted(ORACLE_CHANNELS))
    def test_equals_serial_loop(self, channel, n_pulses):
        p, mu = ORACLE_CHANNELS[channel]
        s = simulate_session(p, mu, n_pulses, 2024)
        assert counts(s) == serial_counts(p, mu, n_pulses, 2024)
        assert s.pulses_sent == n_pulses

    def test_usable_cpus(self, monkeypatch):
        _set_cpus(monkeypatch, 3)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
        assert montecarlo._usable_cpus() == 3
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1

    @pytest.mark.parametrize("n_pulses", [10**7, 1, 3 * BLOCK_SIZE - 5])
    def test_any_cpu_count_same_stats(self, monkeypatch, n_pulses):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(montecarlo.threading, "Thread", CountingThread)
        p = ChannelParams().at_length(10.5)
        n_blocks = -(-n_pulses // BLOCK_SIZE)
        stats = {}
        for cpus in (1, 2, 3, 64):
            _set_cpus(monkeypatch, cpus)
            started.clear()
            stats[cpus] = simulate_session(p, 0.5, n_pulses, 11)
            # the calling thread works too, so at most n_blocks - 1 threads start
            assert len(started) == min(cpus, 4, n_blocks) - 1
            assert not any(t.is_alive() for t in started)
        assert stats[1] == stats[2] == stats[3] == stats[64]

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        _set_cpus(monkeypatch, 64)
        p, mu = ORACLE_CHANNELS["flume"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            s = simulate_session(p, mu, 9 * BLOCK_SIZE + 3, 5)
        finally:
            sys.setswitchinterval(interval)
        assert counts(s) == serial_counts(p, mu, 9 * BLOCK_SIZE + 3, 5)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_generators_made_in_windows(self, monkeypatch, cpus):
        _set_cpus(monkeypatch, cpus)
        workers = min(cpus, 4)
        p = ChannelParams().at_length(10.5)
        expected = simulate_session(p, 0.5, 10**7, 17)
        real = montecarlo._block_rng
        calls, inside, live, peak, blocks = [0], [0], [], [0], []

        class Tracked(np.random.Generator):
            pass  # a Python subclass, so that it takes weak references

        def tracked(seed, b):
            # a tracer's unlocked `+= 1`, with the read and the write far apart: a second
            # thread inside at once would trip the assert or lose a count
            n = calls[0]
            inside[0] += 1
            assert inside[0] == 1, "_block_rng entered on two threads at once"
            blocks.append(b)
            rng = Tracked(real(seed, b).bit_generator)
            live.append(weakref.ref(rng))
            peak[0] = max(peak[0], sum(r() is not None for r in live))
            inside[0] -= 1
            calls[0] = n + 1
            return rng

        monkeypatch.setattr(montecarlo, "_block_rng", tracked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert simulate_session(p, 0.5, 10**7, 17) == expected
        finally:
            sys.setswitchinterval(interval)
        assert calls[0] == 153
        assert blocks == list(range(153))
        assert peak[0] <= workers

    @pytest.mark.parametrize("bad_block", [0, 1, 6])
    def test_failing_block_raises(self, monkeypatch, bad_block):
        _set_cpus(monkeypatch, 64)
        real = montecarlo._block_rng

        class Broken:
            def __getattr__(self, name):
                def draw(*args):
                    raise RuntimeError("broken generator")
                return draw

        monkeypatch.setattr(montecarlo, "_block_rng",
                            lambda seed, b: Broken() if b == bad_block else real(seed, b))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="broken generator"):
            simulate_session(ChannelParams(), 0.5, 8 * BLOCK_SIZE, 0)
        assert threading.active_count() == before


class TestInputValidation:
    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("mu", {"mu": float("nan")}),
            ("mu", {"mu": float("inf")}),
            ("mu", {"mu": -0.1}),
            ("n_pulses", {"n_pulses": 0}),
            ("n_pulses", {"n_pulses": -5}),
            ("n_pulses", {"n_pulses": True}),
            ("n_pulses", {"n_pulses": 1000.0}),
            ("seed", {"seed": -1}),
            ("seed", {"seed": True}),
            ("seed", {"seed": 1.5}),
        ],
    )
    def test_rejected_before_any_block(self, monkeypatch, field, kwargs):
        def no_blocks(seed, b):
            raise AssertionError("a block ran")

        monkeypatch.setattr(montecarlo, "_block_rng", no_blocks)
        args = {"p": ChannelParams(), "mu": 0.5, "n_pulses": 1000, "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=field):
            simulate_session(**args)

    def test_numpy_integers_accepted(self):
        s = simulate_session(ChannelParams(), 0.5, np.int64(1000), np.uint32(3))
        assert s == simulate_session(ChannelParams(), 0.5, 1000, 3)
        assert type(s.pulses_sent) is int and type(s.seed) is int
