import math
import os
import threading
import warnings
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
    """(detections, sifted, errors) from a per-block loop in simulate_session's draw order,
    kept as its oracle: the block's count of pulses with n = 0 .. K photons, one multinomial
    draw over the Poisson table, the signal clicks of each count, Binomial(count,
    1 - (1 - eta)**n) in photon-number order, the dark count, the double clicks among them by
    a hypergeometric draw (only when both counts are nonzero), then bases and outcome flips
    for the signal clicks and then the dark-only clicks."""
    eta = transmittance(p)
    y0 = background_yield(p)
    pmf = montecarlo._photon_pmf(mu)
    chance = 1 - (1 - eta) ** np.arange(pmf.size)
    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        n_signal = int(rng.binomial(rng.multinomial(size, pmf), chance).sum())
        n_dark = int(rng.binomial(size, y0))
        both = int(rng.hypergeometric(n_signal, size - n_signal, n_dark)) if n_signal and n_dark else 0
        k = n_signal + n_dark - both
        basis_match = rng.integers(0, 2, k) == rng.integers(0, 2, k)
        flip = rng.random(k)
        wrong = np.concatenate([flip[:n_signal] < p.e_det, flip[n_signal:] < 0.5])
        detections += k
        sifted += int(basis_match.sum())
        errors += int((basis_match & wrong).sum())
    return detections, sifted, errors


CELLS = 2**12  # cells of guide_table; a power of two, so w * CELLS is exact


def photon_cdf(mu):
    """P(N <= k) for k = 0 .. K-1 from the session's photon table, each entry from whichever of
    the head and tail sums is the smaller, so it is within a few ulps."""
    pmf = montecarlo._photon_pmf(mu)
    below = np.cumsum(pmf)[:-1]
    above = np.cumsum(pmf[::-1])[::-1][1:]  # P(N > k), summed from the folded tail
    return np.where(below < 0.5, below, 1.0 - above)


def guide_table(cdf):
    """guide[j], the number of entries of ``cdf`` <= j / CELLS for j = 0 .. CELLS (the last for a
    w that rounds to 1.0), and ``cdf`` with +inf appended."""
    return np.searchsorted(cdf, np.arange(CELLS + 1) / CELLS, side="right"), np.append(cdf, np.inf)


def guide_photons(rng, size, table):
    """Photon numbers of the pulses with photons in a block of ``size``, by the indexed search
    (Chen & Asau 1974) of the guide-table draw order: their number is Binomial(size,
    1 - P(N=0)), each draws a uniform v, and its photon number is the count of CDF entries
    <= w = P(N=0) + (1 - P(N=0)) v; guide[floor(w * CELLS)] counts those <= the start of
    w's cell, and only w with the next entry <= w too are searched."""
    guide, padded = table
    w = rng.random(rng.binomial(size, 1 - padded[0]))
    w *= 1 - padded[0]
    w += padded[0]
    photons = guide[(w * CELLS).astype(np.intp)]
    search = np.flatnonzero(w >= padded[photons])
    photons[search] = np.searchsorted(padded, w[search], side="right")
    return photons


def guide_order_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) in the previous draw order: the number of pulses with
    photons and their photon numbers by the guide table (guide_photons), one uniform per
    pulse with photons against its click chance 1 - (1 - eta)**n, then the dark count, the
    double clicks and the sift as in serial_counts."""
    eta = transmittance(p)
    y0 = background_yield(p)
    table = guide_table(photon_cdf(mu))
    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        n_phot = guide_photons(rng, size, table)
        n_signal = int((rng.random(n_phot.size) < 1 - (1 - eta) ** n_phot).sum())
        n_dark = int(rng.binomial(size, y0))
        both = int(rng.hypergeometric(n_signal, size - n_signal, n_dark)) if n_signal and n_dark else 0
        k = n_signal + n_dark - both
        basis_match = rng.integers(0, 2, k) == rng.integers(0, 2, k)
        flip = rng.random(k)
        wrong = np.concatenate([flip[:n_signal] < p.e_det, flip[n_signal:] < 0.5])
        detections += k
        sifted += int(basis_match.sum())
        errors += int((basis_match & wrong).sum())
    return detections, sifted, errors


def positions_order_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) in the draw order before that: a photon number for every
    pulse by inversion of one uniform, one uniform per pulse with photons against its click
    chance, a dark-count total and its positions, then bases and outcome flips for the signal
    clicks and then the dark-only clicks, counted on bool rows of the block."""
    return _inversion_order_counts(p, mu, n_pulses, seed,
                                   lambda rng, n, eta: rng.random(n.size) < 1 - (1 - eta) ** n)


def binomial_order_counts(p, mu, n_pulses, seed):
    """(detections, sifted, errors) in the draw order before that: as positions_order_counts,
    but with a binomial of survivors for the pulses with photons in place of the click
    uniforms."""
    return _inversion_order_counts(p, mu, n_pulses, seed,
                                   lambda rng, n, eta: rng.binomial(n, eta) > 0)


def _inversion_order_counts(p, mu, n_pulses, seed, signal_clicks):
    """The per-block loop of positions_order_counts, with ``signal_clicks(rng, n, eta)`` drawing
    the signal-click row of the pulses with photons from their photon numbers n."""
    eta = transmittance(p)
    y0 = background_yield(p)
    cdf = photon_cdf(mu)
    detections = sifted = errors = 0
    n_blocks = (n_pulses + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        size = min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
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
    # a 193-entry photon table, built both ways from its mode at 100
    "bright": (ChannelParams(e_det=0.01).at_length(60.0), 100.0),
}


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


class TestThreadedBlocks:
    """The blocks, which once ran on a thread pool, run in order on the calling thread."""

    @pytest.mark.parametrize("n_pulses", [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                          5 * BLOCK_SIZE + 7, 10**6])
    @pytest.mark.parametrize("channel", sorted(ORACLE_CHANNELS))
    def test_equals_serial_loop(self, channel, n_pulses):
        p, mu = ORACLE_CHANNELS[channel]
        s = simulate_session(p, mu, n_pulses, 2024)
        assert counts(s) == serial_counts(p, mu, n_pulses, 2024)
        assert s.pulses_sent == n_pulses

    @pytest.mark.parametrize("n_pulses", [10**7, 1, 3 * BLOCK_SIZE - 5])
    def test_any_cpu_count_same_stats(self, monkeypatch, n_pulses):
        seen = []  # the size of each block, as it runs
        real = montecarlo._block_counts

        def tracked(rng, size, *args):
            seen.append(size)
            return real(rng, size, *args)

        monkeypatch.setattr(montecarlo, "_block_counts", tracked)
        p = ChannelParams().at_length(10.5)
        stats = {}
        for cpus in (1, 64):
            _set_cpus(monkeypatch, cpus)
            seen.clear()
            stats[cpus] = simulate_session(p, 0.5, n_pulses, 11)
            # every block runs once, in order, a short last one included
            assert seen == [min(BLOCK_SIZE, n_pulses - b * BLOCK_SIZE)
                            for b in range(-(-n_pulses // BLOCK_SIZE))]
        assert stats[1] == stats[64]

    def test_starts_no_thread(self, monkeypatch):
        def no_start(thread):
            raise AssertionError("simulate_session started a thread")

        callers = []
        real = montecarlo._block_counts

        def tracked(*args):
            callers.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(threading.Thread, "start", no_start)
        monkeypatch.setattr(montecarlo, "_block_counts", tracked)
        _set_cpus(monkeypatch, 64)
        simulate_session(ChannelParams().at_length(10.5), 0.5, 5 * BLOCK_SIZE, 0)
        assert callers == [threading.get_ident()] * 5

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_generators_made_in_windows(self, monkeypatch, cpus):
        # whatever CPU count the host reports, the window is one generator: each block's is
        # made in block order and dropped before the next block's
        _set_cpus(monkeypatch, cpus)
        p = ChannelParams().at_length(10.5)
        expected = simulate_session(p, 0.5, 10**7, 17)
        real = montecarlo._block_rng
        live, peak, blocks = [], [0], []

        class Tracked(np.random.Generator):
            pass  # a Python subclass, so that it takes weak references

        def tracked(seed, b):
            blocks.append(b)
            rng = Tracked(real(seed, b).bit_generator)
            live.append(weakref.ref(rng))
            peak[0] = max(peak[0], sum(r() is not None for r in live))
            return rng

        monkeypatch.setattr(montecarlo, "_block_rng", tracked)
        assert simulate_session(p, 0.5, 10**7, 17) == expected
        assert blocks == list(range(153))
        assert peak[0] == 1

    @pytest.mark.parametrize("bad_block", [0, 1, 6])
    def test_failing_block_raises(self, monkeypatch, bad_block):
        real = montecarlo._block_rng
        made = []

        class Broken:
            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    raise RuntimeError("broken generator")
                return draw

        def block_rng(seed, b):
            made.append(b)
            return Broken() if b == bad_block else real(seed, b)

        monkeypatch.setattr(montecarlo, "_block_rng", block_rng)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="broken generator"):
            simulate_session(ChannelParams(), 0.5, 8 * BLOCK_SIZE, 0)
        assert threading.active_count() == before
        assert made == list(range(bad_block + 1))  # no block runs after the failing one


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
    """Pooled over 200 seeds, simulate_session and the five earlier draw orders give the
    same gain, sifted fraction and QBER within 4 combined standard errors.  The positions
    order draws the dark counts' positions, so on the dark-dominated channels it checks the
    hypergeometric double clicks against double clicks on drawn pulses."""
    p, mu = DISTRIBUTION_CHANNELS[channel]
    n = BLOCK_SIZE // 2
    orders = {"session": lambda seed: counts(simulate_session(p, mu, n, seed)),
              "guide": lambda seed: guide_order_counts(p, mu, n, seed),
              "positions": lambda seed: positions_order_counts(p, mu, n, seed),
              "binomial": lambda seed: binomial_order_counts(p, mu, n, seed),
              "poisson": lambda seed: poisson_order_counts(p, mu, n, seed),
              "every": lambda seed: every_pulse_counts(p, mu, n, seed)}
    pooled = {k: np.array([200 * n, 0, 0, 0], dtype=np.int64) for k in orders}
    for seed in range(200):
        for k, draw in orders.items():
            pooled[k][1:] += draw(seed)
    for other in ("guide", "positions", "binomial", "poisson", "every"):
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
        term = total = mpmath.exp(-m)
        out = [total]
        for k in range(1, k_max + 1):
            term = term * m / k
            total += term
            out.append(total)
        return out


def poisson_pmf(mu, k_max):
    """Exact P(N = k) of Poisson(mu) for k = 0 .. k_max - 1 and P(N >= k_max) at k_max, at 50
    digits; the tail is summed up to mu + 40 sqrt(mu) + 80, past which it is below 1e-300."""
    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        terms = [mpmath.exp(-m)]
        for k in range(1, max(k_max, int(mu + 40 * math.sqrt(mu) + 80)) + 1):
            terms.append(terms[-1] * m / k)
        return terms[:k_max] + [mpmath.fsum(terms[k_max:])]


def exp_start_cdf(mu):
    """The Poisson table built upwards from P(N=0) = exp(-mu): photon_cdf's oracle at small mu."""
    k = np.arange(1.0, int(mu + 40 * math.sqrt(mu) + 40))
    pmf = math.exp(-mu) * np.cumprod(np.concatenate(([1.0], mu / k)))
    below = np.cumsum(pmf)
    above = np.cumsum(pmf[::-1])[::-1][1:]
    n = max(1, int(np.argmax(above < 2.0**-53)))
    return np.where(below[:n] < 0.5, below[:n], 1.0 - above[:n])


class TestPhotonTable:
    @pytest.mark.parametrize("mu", [1e-300, 1e-9, 1e-3, 0.1, 0.5, 1.0, 3.7, 10.0, 20.0, 49.9, 50.0,
                                    100.0, 700.0, 2000.0, montecarlo._MU_MAX])
    def test_matches_exact_poisson(self, mu):
        cdf = photon_cdf(mu)
        assert montecarlo._photon_pmf(mu).size == cdf.size + 1  # P(N = 0 .. K-1) and P(N >= K)
        exact = poisson_cdf(mu, cdf.size)
        with mpmath.workdps(50):
            err = max(abs(mpmath.mpf(float(c)) - e) for c, e in zip(cdf, exact))
            tail = [1 - e for e in exact]  # tail[k] = P(N > k)
        assert err <= 1e-15, (mu, float(err))
        # K = cdf.size is the first photon number whose tail is below 2**-53 (or 1)
        assert tail[cdf.size] < 2.0**-53
        assert cdf.size == 1 or tail[cdf.size - 1] >= 2.0**-53
        assert np.all(np.diff(cdf) >= 0)
        assert cdf.size == 1 or cdf[-1] <= 1 - 2.0**-53  # K has a chance of at least 2**-53

    @pytest.mark.parametrize("mu", [0.5, 100.0, montecarlo._MU_MAX])
    def test_pmf_matches_exact_poisson(self, mu):
        """Each entry is within 1e-13 (relative) of the 50-digit pmf, the last of the tail
        P(N >= K) folded into it; an entry whose exact value is below the smallest normal
        double, as at the head of mu = 1e4, is within 1e-13 of that."""
        pmf = montecarlo._photon_pmf(mu)
        exact = poisson_pmf(mu, pmf.size - 1)
        with mpmath.workdps(50):
            err = max(abs(mpmath.mpf(float(c)) - e) / max(e, 2.0**-1022) for c, e in zip(pmf, exact))
        assert err <= 1e-13, (mu, float(err))
        assert pmf.size == {0.5: 15, 100.0: 194, montecarlo._MU_MAX: 10833}[mu]

    @pytest.mark.parametrize("mu", [0.0, 1e-300, 1e-9, 1e-3, 0.1, 0.5, 1.0])
    def test_equals_exp_start_bit_for_bit(self, mu):
        """Started from the mode, the table's CDF is the one started from exp(-mu), bit for bit,
        at these mu."""
        assert photon_cdf(mu).tobytes() == exp_start_cdf(mu).tobytes()

    def test_vacuum_and_bound(self):
        pmf = montecarlo._photon_pmf(0.0)
        assert pmf.tolist() == [1.0, 0.0]
        photons = montecarlo._photons(np.random.default_rng(0), BLOCK_SIZE, pmf)
        assert photons.tolist() == [BLOCK_SIZE, 0]
        # at the bound, exp(-mu) is 0 in doubles; the table's head underflows to 0 with it, but
        # nothing is NaN or infinite and the tail rule still ends the table
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            pmf = montecarlo._photon_pmf(montecarlo._MU_MAX)
        assert math.exp(-montecarlo._MU_MAX) == 0.0 and pmf[0] == 0.0
        assert np.all(np.isfinite(pmf)) and pmf.size == 10833

    @pytest.mark.parametrize("mu", [1e-3, 0.5, 50.0, 100.0, montecarlo._MU_MAX])
    def test_pooled_histogram(self, mu):
        """Photon-number counts pooled over 64 blocks fit Poisson(mu): bins with fewer than 20
        expected counts are merged, and the chi-square statistic stays below its mean plus
        6 standard deviations (the normal approximation's one-sided 1e-9 point)."""
        pmf = montecarlo._photon_pmf(mu)
        hist = np.zeros(pmf.size, dtype=np.int64)
        for b in range(64):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(b,)))
            photons = montecarlo._photons(rng, BLOCK_SIZE, pmf)
            assert photons.sum() == BLOCK_SIZE
            hist += photons
        hist = np.trim_zeros(hist, "b")
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


def edge_uniforms(cdf):
    """Values where a guide lookup could go wrong: every entry of ``cdf`` and its
    neighbours, every guide cell's start and the double below it, 0 and 1 - 2**-53."""
    starts = np.arange(CELLS) / CELLS
    u = np.concatenate([cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
                        starts, np.nextafter(starts, -np.inf), [0.0, 1 - 2.0**-53]])
    return u[(u >= 0) & (u < 1)]


def lit_uniforms(cdf):
    """Uniforms v whose w = P(N=0) + (1 - P(N=0)) v lands on or next to each of
    ``edge_uniforms`` at or above P(N=0): the v that maps there and the two doubles either
    side of it, then 0 and 1 - 2**-53, the extremes of ``rng.random``."""
    w = edge_uniforms(cdf)
    v = (w[w >= cdf[0]] - cdf[0]) / (1 - cdf[0]) if cdf[0] < 1 else np.zeros(0)
    for _ in range(2):
        v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return np.unique(np.concatenate([v[(v >= 0) & (v < 1)], [0.0, 1 - 2.0**-53]]))


def lit_photons(cdf, v):
    """(w, guide_photons' photon numbers) for the lit pulses' uniforms ``v``, every pulse lit."""
    photons = guide_photons(FixedUniforms(v), v.size, guide_table(cdf))
    return cdf[0] + (1 - cdf[0]) * v, photons


INDEXED_MUS = [0.0, 1e-300, 1e-9, 0.01, 0.5, 3.0, 20.0, 49.9, 50.0, 100.0, montecarlo._MU_MAX]


class TestIndexedSearch:
    """guide_photons' guide lookup of w gives exactly np.searchsorted(cdf, w, side="right"), so
    guide_order_counts is the guide-table draw order it stands for."""

    @pytest.mark.parametrize("mu", INDEXED_MUS)
    def test_edge_uniforms(self, mu):
        cdf = photon_cdf(mu)
        w, photons = lit_photons(cdf, lit_uniforms(cdf))
        assert np.array_equal(photons, np.searchsorted(cdf, w, side="right"))
        assert np.all(photons >= 1)
        # v = 0 gives w = P(N=0), one photon, or at the bound, where the table's head is 0, the
        # first photon number past it; v = 1 - 2**-53 gives K photons, and at mu <= 0.5 its w
        # rounds to 1.0 and reads the guide's extra cell
        assert w[0] == cdf[0] and photons[0] == (1 if cdf[0] > 0 else np.count_nonzero(cdf == 0))
        assert photons[-1] == cdf.size
        assert (w[-1] == 1.0) == (mu <= 0.5)
        assert guide_table(cdf)[0].size == CELLS + 1
        # each edge at or above P(N=0) is hit exactly, or sits between the w of two adjacent
        # doubles v, so that no uniform maps onto it (w is nondecreasing in v)
        v = lit_uniforms(cdf)
        edges = edge_uniforms(cdf)
        edges = edges[edges >= cdf[0]]
        i = np.searchsorted(w, edges)
        missed = w[np.minimum(i, w.size - 1)] != edges
        assert np.all(v[i[missed]] == np.nextafter(v[i[missed] - 1], np.inf)), mu

    def test_entries_on_cell_boundaries(self):
        # a table whose entries sit at cell starts and one double either side of them
        starts = np.arange(1, CELLS) / CELLS
        cdf = np.sort(np.concatenate([starts, np.nextafter(starts, -np.inf),
                                      np.nextafter(starts, np.inf)]))
        w, photons = lit_photons(cdf, lit_uniforms(cdf))
        assert np.array_equal(photons, np.searchsorted(cdf, w, side="right"))

    @pytest.mark.parametrize("mu", INDEXED_MUS)
    def test_seeded_blocks(self, mu):
        cdf = photon_cdf(mu)
        table = guide_table(cdf)
        for b in range(4):
            photons = guide_photons(montecarlo._block_rng(3, b), BLOCK_SIZE, table)
            rng = montecarlo._block_rng(3, b)
            w = cdf[0] + (1 - cdf[0]) * rng.random(rng.binomial(BLOCK_SIZE, 1 - cdf[0]))
            assert np.array_equal(photons, np.searchsorted(cdf, w, side="right"))


def sift_row_counts(seed, signal, dark, size, e_det):
    """_sift's counts from bool rows of the block: the signal row, then the dark-only clicks."""
    signal_row = np.zeros(size, dtype=bool)
    signal_row[signal] = True
    dark_row = np.zeros(size, dtype=bool)
    dark_row[dark] = True
    n_signal = int(signal_row.sum())
    k = n_signal + int((dark_row & ~signal_row).sum())
    rng = np.random.default_rng(seed)
    basis_match = rng.integers(0, 2, k) == rng.integers(0, 2, k)
    flip = rng.random(k)
    wrong = np.concatenate([flip[:n_signal] < e_det, flip[n_signal:] < 0.5])
    return k, int(basis_match.sum()), int((basis_match & wrong).sum())


class TestSift:
    @pytest.mark.parametrize("signal_on", ["nothing", "every dark position", "no dark position",
                                           "half the dark positions", "every pulse"])
    @pytest.mark.parametrize("n_dark", [0, 1, 300])
    def test_double_clicks_count_once(self, signal_on, n_dark):
        """_sift of the signal and dark-only click counts of drawn positions gives the
        counts of the block's bool rows, each double click counted once."""
        rng = np.random.default_rng([n_dark, 1])
        dark = rng.choice(BLOCK_SIZE, n_dark, replace=False, shuffle=False)
        others = np.setdiff1d(np.arange(0, BLOCK_SIZE, 5), dark)
        signal = {"nothing": np.arange(0),
                  "every dark position": np.union1d(dark, others),
                  "no dark position": others,
                  "half the dark positions": np.union1d(dark[::2], others),
                  "every pulse": np.arange(BLOCK_SIZE)}[signal_on]
        dark_only = np.setdiff1d(dark, signal).size
        got = montecarlo._sift(np.random.default_rng(9), signal.size, dark_only, 0.01)
        assert got == sift_row_counts(9, signal, dark, BLOCK_SIZE, 0.01)
        assert got[0] == np.union1d(signal, dark).size


class TestDarkCounts:
    @pytest.mark.parametrize("size", [1, 7, BLOCK_SIZE])
    @pytest.mark.parametrize("y0", [0.0, 3e-7, 0.5, 1.0])
    def test_positions_distinct_and_in_range(self, y0, size):
        """The dark-only clicks fall on distinct pulses without a signal click: between 0
        and size - signal of them, none at y0 = 0 and all of those pulses at y0 = 1."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            signal = int(rng.integers(0, size + 1))
            dark_only = montecarlo._dark_only(rng, size, y0, signal)
            assert 0 <= dark_only <= size - signal
            if y0 == 0.0:
                assert dark_only == 0
            if y0 == 1.0:
                assert dark_only == size - signal

    @pytest.mark.parametrize("y0,blocks", [(3e-7, 3000), (0.5, 20)])
    def test_indicators_are_bernoulli(self, y0, blocks):
        """A block's dark-only clicks are Bernoulli(y0) on each pulse without a signal
        click: pooled over blocks, at each of 8 signal counts from 0 to 7/8 of the block, they
        are y0 of the other pulses within 4 SE, and so is their total."""
        rng = np.random.default_rng(8)
        signal = np.arange(8) * BLOCK_SIZE // 8
        hits = np.zeros(8, dtype=np.int64)
        for _ in range(blocks):
            hits += [montecarlo._dark_only(rng, BLOCK_SIZE, y0, int(s)) for s in signal]
        for k, n in ((hits, blocks * (BLOCK_SIZE - signal)), (hits.sum(), blocks * (8 * BLOCK_SIZE - signal.sum()))):
            se = np.sqrt(n * y0 * (1 - y0))
            assert np.all(np.abs(k - n * y0) <= 4 * se), (y0, k, n * y0, se)

    def test_every_pulse_clicks_at_unit_yield(self):
        p = ChannelParams(dark_rate_hz=1e9, e_det=0.0)
        assert background_yield(p) == 1.0
        for mu in (0.0, 0.5, 100.0):
            s = simulate_session(p, mu, BLOCK_SIZE + 1, 3)
            assert s.detections == s.pulses_sent == BLOCK_SIZE + 1
            assert counts(s) == serial_counts(p, mu, BLOCK_SIZE + 1, 3)


def click_chance(n, eta):
    """1 - (1 - eta)**n at 50 digits: the chance that at least one of n photons survives."""
    with mpmath.workdps(50):
        return 1 - (1 - mpmath.mpf(eta)) ** n


class FixedUniforms:
    """A generator stand-in whose uniforms are ``v``: one value for every draw, or one per
    element of the drawn array; every pulse of its blocks has photons."""

    def __init__(self, v):
        self.v = v

    def random(self, size=None):
        return np.full(size, self.v, dtype=float)

    def binomial(self, n, p):
        return n


SIGNAL_PHOTONS = [1, 2, 7, 150]
SIGNAL_ETAS = [0.0, 1e-12, 0.0076, 0.1056, 0.9, 1.0]


def session_chance(eta):
    """chance[n] of a session at mu = 100, whose K = 193 covers SIGNAL_PHOTONS."""
    return montecarlo._click_chance(eta, montecarlo._photon_pmf(100.0).size)


class TestSignalClicks:
    @pytest.mark.parametrize("eta", SIGNAL_ETAS)
    @pytest.mark.parametrize("n", SIGNAL_PHOTONS)
    def test_click_fraction(self, n, eta):
        """Pooled over 16 blocks of n-photon pulses, the click fraction is within 4 SE
        of 1 - (1 - eta)**n (exactly 0 or 1 where that is its value)."""
        rng = np.random.default_rng([n, SIGNAL_ETAS.index(eta)])
        chances = session_chance(eta)
        photons = np.zeros(chances.size, dtype=np.int64)
        photons[n] = BLOCK_SIZE
        clicks = sum(montecarlo._signal(rng, photons, chances) for _ in range(16))
        total = 16 * BLOCK_SIZE
        chance = float(click_chance(n, eta))
        assert abs(clicks / total - chance) <= 4 * np.sqrt(chance * (1 - chance) / total), (
            n, eta, clicks, chance)

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_no_or_every_lit_pulse_clicks(self, eta):
        rng = np.random.default_rng(4)
        with np.errstate(all="raise"):
            chances = session_chance(eta)
            photons = np.bincount(rng.integers(1, chances.size, BLOCK_SIZE // 3),  # every n = 1 .. K
                                  minlength=chances.size)
            signal = montecarlo._signal(rng, photons, chances)
        assert signal == (photons.sum() if eta == 1.0 else 0)

    @pytest.mark.parametrize("eta", SIGNAL_ETAS)
    @pytest.mark.parametrize("n", SIGNAL_PHOTONS)
    def test_threshold_within_1e15_of_exact(self, n, eta):
        """The chance -expm1(n log1p(-eta)) that _signal thins the n-photon pulses at is within
        1e-15 (relative) of the exact one, so exactly 0 or 1 where that is its value."""
        exact = click_chance(n, eta)
        with np.errstate(all="raise"):
            chance = session_chance(eta)[n]
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(float(chance)) - exact) <= mpmath.mpf("1e-15") * exact, (n, eta)


class TestClickTable:
    @pytest.mark.parametrize("eta", [0.0, 1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("mu", [1e-9, 0.5, 50.0])
    def test_equals_expm1_bit_for_bit(self, mu, eta):
        """The session's chance[n] is -expm1(n log1p(-eta)) bit for bit for n = 1 .. K, and 0
        at n = 0; building it warns of nothing, also at eta = 1, where log1p(-eta) is -inf."""
        pmf = montecarlo._photon_pmf(mu)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            chance = montecarlo._click_chance(eta, pmf.size)
        n = np.arange(1, pmf.size)
        with np.errstate(divide="ignore"):
            expected = -np.expm1(n * np.log1p(-eta))
        assert chance.size == pmf.size and chance[0] == 0.0
        assert chance[1:].tobytes() == expected.tobytes()


class TestOnePulseBlock:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 100.0])
    @pytest.mark.parametrize("dark_rate_hz", [0.0, 3e6, 1e9])
    def test_last_block_of_one_pulse(self, mu, dark_rate_hz):
        p = ChannelParams(dark_rate_hz=dark_rate_hz, e_det=0.01).at_length(5.0)
        for seed in range(20):
            s = simulate_session(p, mu, BLOCK_SIZE + 1, seed)
            assert counts(s) == serial_counts(p, mu, BLOCK_SIZE + 1, seed)
            rng = np.random.default_rng(seed)
            pmf = montecarlo._photon_pmf(mu)
            last = montecarlo._block_counts(rng, 1, pmf, montecarlo._click_chance(transmittance(p), pmf.size),
                                            background_yield(p), p.e_det)
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
            ("mu", {"mu": float(np.nextafter(montecarlo._MU_MAX, np.inf))}),
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
