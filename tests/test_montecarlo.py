import sys
import threading
import weakref

import mpmath
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

    def test_vacuum_with_dark_counts(self):
        # no photons: every click is a dark count, wrong half the time
        p = ChannelParams(dark_rate_hz=3e7, e_det=0.0)
        s = simulate_session(p, 0.0, 10**6, 12)
        assert s.q_hat == pytest.approx(background_yield(p), abs=4 * s.q_se)
        assert s.e_hat == pytest.approx(0.5, abs=4 * s.e_se)

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
    """(detections, sifted, errors) from a one-thread per-block loop in simulate_session's
    draw order, kept as its oracle: a photon number for every pulse by inversion of one
    uniform (rng.poisson above the inversion threshold), one uniform per pulse with photons
    against its click chance 1 - (1 - eta)**n, a dark-count total and its positions, then
    bases and outcome flips for the signal clicks and then the dark-only clicks."""
    return _inversion_order_counts(p, mu, n_pulses, seed,
                                   lambda rng, n, eta: rng.random(n.size) < 1 - (1 - eta) ** n)


def binomial_order_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) in the previous draw order: as serial_counts, but with
    a binomial of survivors for the pulses with photons in place of the click uniforms."""
    return _inversion_order_counts(p, mu, n_pulses, seed,
                                   lambda rng, n, eta: rng.binomial(n, eta) > 0)


def _inversion_order_counts(p, mu, n_pulses, seed, signal_clicks):
    """The per-block loop of serial_counts, with ``signal_clicks(rng, n, eta)`` drawing
    the signal-click row of the pulses with photons from their photon numbers n."""
    eta = transmittance(p)
    y0 = background_yield(p)
    cdf = montecarlo._photon_cdf(mu)
    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        if cdf is None:
            n_phot = rng.poisson(mu, size)
        else:
            n_phot = np.searchsorted(cdf, rng.random(size), side="right")
        lit = n_phot > 0
        signal = np.zeros(size, dtype=bool)
        signal[lit] = signal_clicks(rng, n_phot[lit], eta)
        dark = np.zeros(size, dtype=bool)
        dark[rng.choice(size, rng.binomial(size, y0), replace=False, shuffle=False)] = True
        n_signal, n_dark_only = int(signal.sum()), int((dark & ~signal).sum())
        k = n_signal + n_dark_only
        basis_match = rng.integers(0, 2, k) == rng.integers(0, 2, k)
        flip = rng.random(k)
        wrong = np.concatenate([flip[:n_signal] < p.e_det, flip[n_signal:] < 0.5])
        detections += k
        sifted += int(basis_match.sum())
        errors += int((basis_match & wrong).sum())
    return detections, sifted, errors


def poisson_order_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) in the draw order before that: rng.poisson photon numbers,
    survivors for pulses with photons, a dark-count uniform for every pulse, then bases
    and an outcome flip for each click in pulse order."""
    eta = transmittance(p)
    y0 = background_yield(p)
    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        n_phot = rng.poisson(mu, size)
        lit = n_phot > 0
        signal = np.zeros(size, dtype=bool)
        signal[lit] = rng.binomial(n_phot[lit], eta) > 0
        dark = rng.random(size) < y0
        click = signal | dark
        k = int(click.sum())
        basis_match = rng.integers(0, 2, k) == rng.integers(0, 2, k)
        flip = rng.random(k)
        wrong = np.where(signal[click], flip < p.e_det, flip < 0.5)
        detections += k
        sifted += int(basis_match.sum())
        errors += int((basis_match & wrong).sum())
    return detections, sifted, errors


def every_pulse_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) in the per-pulse draw order before that: survivors,
    bases and an outcome flip for every pulse."""
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
    # above the inversion threshold, so the photon numbers come from rng.poisson
    "bright": (ChannelParams(e_det=0.01).at_length(60.0), 2 * montecarlo._INVERSION_MU_MAX),
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


DISTRIBUTION_CHANNELS = {
    # ~5 % of pulses click, nearly all on signal
    "signal_dominated": (ChannelParams(e_det=0.01).at_length(0.5), 0.5),
    # ~0.4 % of pulses click, about three in four on a dark count alone
    "dark_dominated": (ChannelParams(e_det=0.01, dark_rate_hz=3e6).at_length(30.0), 0.5),
    # two of ORACLE_CHANNELS, whose gain is compared with the earlier orders only here; the
    # vacuum one clicks on ~2 of these pulses, so test_vacuum_with_dark_counts checks its gain
    "oracle_lossless": ORACLE_CHANNELS["lossless"],
    "oracle_dark_dominated": ORACLE_CHANNELS["dark_dominated"],
}


@pytest.mark.parametrize("channel", sorted(DISTRIBUTION_CHANNELS))
def test_draw_orders_agree_in_distribution(channel):
    """Pooled over 200 seeds, simulate_session and the three earlier draw orders give the
    same gain, sifted fraction and QBER within 4 combined standard errors."""
    p, mu = DISTRIBUTION_CHANNELS[channel]
    n = BLOCK_SIZE // 2
    orders = {"session": lambda seed: counts(simulate_session(p, mu, n, seed)),
              "binomial": lambda seed: binomial_order_counts(p, mu, n, seed),
              "poisson": lambda seed: poisson_order_counts(p, mu, n, seed),
              "every": lambda seed: every_pulse_counts(p, mu, n, seed)}
    pooled = {k: np.array([200 * n, 0, 0, 0], dtype=np.int64) for k in orders}
    for seed in range(200):
        for k, draw in orders.items():
            pooled[k][1:] += draw(seed)
    for other in ("binomial", "poisson", "every"):
        # detections / pulses, sifted / detections, then errors / sifted
        for num, den in ((1, 0), (2, 1), (3, 2)):
            (a, n_a), (b, n_b) = ((pooled[k][num], pooled[k][den]) for k in ("session", other))
            f_a, f_b = a / n_a, b / n_b
            se = np.sqrt(f_a * (1 - f_a) / n_a + f_b * (1 - f_b) / n_b)
            assert abs(f_a - f_b) <= 4 * se, (channel, other, num, f_a, f_b, se)


def poisson_cdf(mu, k_max):
    """Exact P(N <= k) of Poisson(mu) for k = 0 .. k_max, at 50 digits."""
    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        terms = [mpmath.exp(-m) * m**k / mpmath.factorial(k) for k in range(k_max + 1)]
        return [mpmath.fsum(terms[: k + 1]) for k in range(k_max + 1)]


class TestPhotonTable:
    @pytest.mark.parametrize("mu", [1e-300, 1e-9, 1e-3, 0.1, 0.5, 1.0, 3.7, 10.0, 20.0, 49.9, 50.0])
    def test_matches_exact_poisson(self, mu):
        cdf = montecarlo._photon_cdf(mu)
        exact = poisson_cdf(mu, cdf.size)
        with mpmath.workdps(50):
            err = max(abs(mpmath.mpf(float(c)) - e) for c, e in zip(cdf, exact))
            tail = [1 - e for e in exact]  # tail[k] = P(N > k)
        assert err <= 1e-15, (mu, float(err))
        # K = cdf.size is the first photon number whose tail is below 2**-53 (or 1)
        assert tail[cdf.size] < 2.0**-53
        assert cdf.size == 1 or tail[cdf.size - 1] >= 2.0**-53
        assert np.all(np.diff(cdf) >= 0)
        assert cdf.size == 1 or cdf[-1] <= 1 - 2.0**-53  # the largest uniform reaches K

    def test_vacuum_and_threshold(self):
        assert montecarlo._photon_cdf(0.0).tolist() == [1.0]
        assert montecarlo._photon_cdf(montecarlo._INVERSION_MU_MAX) is not None
        assert montecarlo._photon_cdf(np.nextafter(montecarlo._INVERSION_MU_MAX, np.inf)) is None
        lit, photons = montecarlo._photons(np.random.default_rng(0), BLOCK_SIZE, 0.0,
                                           montecarlo._photon_cdf(0.0))
        assert lit.size == photons.size == 0

    @pytest.mark.parametrize("mu", [1e-3, 0.5, montecarlo._INVERSION_MU_MAX,
                                    np.nextafter(montecarlo._INVERSION_MU_MAX, np.inf)])
    def test_pooled_histogram(self, mu):
        """Photon numbers pooled over 64 blocks fit Poisson(mu): bins with fewer than 20
        expected counts are merged, and the chi-square statistic stays below its mean plus
        6 standard deviations (the normal approximation's one-sided 1e-9 point)."""
        cdf = montecarlo._photon_cdf(mu)
        hist = np.zeros(1, dtype=np.int64)
        for b in range(64):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(b,)))
            lit, photons = montecarlo._photons(rng, BLOCK_SIZE, mu, cdf)
            assert np.all(photons >= 1) and np.all(np.diff(lit) > 0)
            h = np.bincount(photons, minlength=hist.size)
            h[0] = BLOCK_SIZE - lit.size
            hist = np.pad(hist, (0, h.size - hist.size)) + h
        n = 64 * BLOCK_SIZE
        exact = [float(c) for c in poisson_cdf(mu, hist.size)]
        pmf = np.diff([0.0, *exact[:-1]])
        pmf[-1] += 1.0 - exact[-2]  # the last observed bin takes the tail
        chi2, df, obs, exp = 0.0, -1, 0, 0.0
        for k in range(hist.size):
            obs, exp = obs + int(hist[k]), exp + n * pmf[k]
            if exp >= 20 and n * (1 - exact[k]) >= 20:
                chi2, df, obs, exp = chi2 + (obs - exp) ** 2 / exp, df + 1, 0, 0.0
        if exp > 0:
            chi2, df = chi2 + (obs - exp) ** 2 / exp, df + 1
        assert df >= 1
        assert chi2 <= df + 6 * np.sqrt(2 * df), (mu, chi2, df)
        mean = hist @ np.arange(hist.size) / n
        assert abs(mean - mu) <= 6 * np.sqrt(mu / n)


class TestDarkCounts:
    @pytest.mark.parametrize("size", [1, 7, BLOCK_SIZE])
    @pytest.mark.parametrize("y0", [0.0, 3e-7, 0.5, 1.0])
    def test_positions_distinct_and_in_range(self, y0, size):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dark = montecarlo._dark(rng, size, y0)
            assert np.unique(dark).size == dark.size
            assert np.all((0 <= dark) & (dark < size))
            if y0 == 0.0:
                assert dark.size == 0
            if y0 == 1.0:
                assert dark.size == size

    @pytest.mark.parametrize("y0,blocks", [(3e-7, 3000), (0.5, 20)])
    def test_indicators_are_bernoulli(self, y0, blocks):
        """Pooled over blocks, each of 8 position bins holds y0 of its pulses within 4 SE,
        and so does the total."""
        rng = np.random.default_rng(8)
        hits = np.zeros(8, dtype=np.int64)
        for _ in range(blocks):
            hits += np.bincount(montecarlo._dark(rng, BLOCK_SIZE, y0) * 8 // BLOCK_SIZE,
                                minlength=8)
        for k, n in ((hits, blocks * BLOCK_SIZE // 8), (hits.sum(), blocks * BLOCK_SIZE)):
            se = np.sqrt(n * y0 * (1 - y0))
            assert np.all(np.abs(k - n * y0) <= 4 * se), (y0, k, n * y0, se)

    def test_every_pulse_clicks_at_unit_yield(self):
        p = ChannelParams(dark_rate_hz=1e9, e_det=0.0)
        assert background_yield(p) == 1.0
        for mu in (0.0, 0.5, 2 * montecarlo._INVERSION_MU_MAX):
            s = simulate_session(p, mu, BLOCK_SIZE + 1, 3)
            assert s.detections == s.pulses_sent == BLOCK_SIZE + 1
            assert counts(s) == serial_counts(p, mu, BLOCK_SIZE + 1, 3)


def click_chance(n, eta):
    """1 - (1 - eta)**n at 50 digits: the chance that at least one of n photons survives."""
    with mpmath.workdps(50):
        return 1 - (1 - mpmath.mpf(eta)) ** n


class FixedUniforms:
    """A generator stand-in whose every uniform is ``v``."""

    def __init__(self, v):
        self.v = v

    def random(self, size):
        return np.full(size, self.v)


SIGNAL_PHOTONS = [1, 2, 7, 150]
SIGNAL_ETAS = [0.0, 1e-12, 0.0076, 0.1056, 0.9, 1.0]


class TestSignalClicks:
    @pytest.mark.parametrize("eta", SIGNAL_ETAS)
    @pytest.mark.parametrize("n", SIGNAL_PHOTONS)
    def test_click_fraction(self, n, eta):
        """Pooled over 16 blocks of n-photon pulses, the click fraction is within 4 SE
        of 1 - (1 - eta)**n (exactly 0 or 1 where that is its value)."""
        rng = np.random.default_rng([n, SIGNAL_ETAS.index(eta)])
        lit = np.arange(BLOCK_SIZE)
        photons = np.full(BLOCK_SIZE, n)
        clicks = sum(int(np.count_nonzero(montecarlo._signal(rng, BLOCK_SIZE, lit, photons, eta)))
                     for _ in range(16))
        total = 16 * BLOCK_SIZE
        chance = float(click_chance(n, eta))
        assert abs(clicks / total - chance) <= 4 * np.sqrt(chance * (1 - chance) / total), (
            n, eta, clicks, chance)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_no_or_every_lit_pulse_clicks(self, eta):
        rng = np.random.default_rng(4)
        lit = np.arange(0, BLOCK_SIZE, 3)
        photons = rng.integers(1, 200, lit.size)
        with np.errstate(all="raise"):
            signal = montecarlo._signal(rng, BLOCK_SIZE, lit, photons, eta)
        expected = np.zeros(BLOCK_SIZE, dtype=bool)
        expected[lit] = eta == 1.0
        assert np.array_equal(signal, expected)

    @pytest.mark.parametrize("eta", SIGNAL_ETAS)
    @pytest.mark.parametrize("n", SIGNAL_PHOTONS)
    def test_threshold_within_1e15_of_exact(self, n, eta):
        """A uniform 1e-15 (relative) below the exact chance clicks and one 1e-15 above
        it does not, so the row's threshold -expm1(n log1p(-eta)) is that close to it."""
        chance = click_chance(n, eta)
        with mpmath.workdps(50):
            below, above = (float(chance * (1 + d)) for d in (-mpmath.mpf("1e-15"), mpmath.mpf("1e-15")))
        lit, photons = np.array([0]), np.array([n])
        with np.errstate(all="raise"):
            clicked_below = montecarlo._signal(FixedUniforms(below), 1, lit, photons, eta)[0]
            clicked_above = montecarlo._signal(FixedUniforms(above), 1, lit, photons, eta)[0]
        assert clicked_below or chance == 0
        assert not clicked_above or chance == 1


class TestOnePulseBlock:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 2 * montecarlo._INVERSION_MU_MAX])
    @pytest.mark.parametrize("dark_rate_hz", [0.0, 3e6, 1e9])
    def test_last_block_of_one_pulse(self, mu, dark_rate_hz):
        p = ChannelParams(dark_rate_hz=dark_rate_hz, e_det=0.01).at_length(5.0)
        for seed in range(20):
            s = simulate_session(p, mu, BLOCK_SIZE + 1, seed)
            assert counts(s) == serial_counts(p, mu, BLOCK_SIZE + 1, seed)
            rng = np.random.default_rng(seed)
            last = montecarlo._block_counts(rng, 1, mu, montecarlo._photon_cdf(mu),
                                            transmittance(p), background_yield(p), p.e_det)
            assert 0 <= last[2] <= last[1] <= last[0] <= 1
            assert last[0] == 1 or background_yield(p) < 1.0


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
