import numpy as np
import pytest

from uwqkd.channel import ChannelParams, background_yield, gain_model, transmittance
from uwqkd.montecarlo import simulate_session, within_model_band


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
        q_model = gain_model(0.5, transmittance(p), background_yield(p))
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
