import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwqkd.channel import ChannelParams, GainStats, _gain_qber, qber_model
from uwqkd.cli import _result_payload
from uwqkd.decoy import (
    FLAG_NO_POSITIVE_KEY,
    FLAG_VACUOUS,
    DecoyEstimate,
    binary_entropy,
    decoy_key_rate,
    estimate_single_photon,
    evaluate_key_rate,
    sifted_key_fraction,
)

from conftest import e1_true, fock_gain, fock_qber, poisson_pn, q1_true


def gain(mu, eta, y0):
    return float(_gain_qber(mu, eta, y0, 0.0)[0])


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_at_0p037(self):
        # frozen: -0.037 log2 0.037 - 0.963 log2 0.963
        assert binary_entropy(0.037) == pytest.approx(0.2283640, abs=1e-6)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    def test_grid_properties(self):
        # symmetric, concave, maximal at 1/2 on a 1000-point grid
        e = np.linspace(0.001, 0.999, 1000)
        h = np.array([binary_entropy(x) for x in e])
        h_rev = np.array([binary_entropy(1 - x) for x in e])
        assert np.allclose(h, h_rev, atol=1e-12)
        assert h.max() <= 1.0
        mid = np.array([binary_entropy((a + b) / 2) for a, b in zip(e[:-1], e[1:])])
        assert np.all(mid + 1e-12 >= (h[:-1] + h[1:]) / 2)


class TestIdealRate:
    # ideal single-photon BB84 gives (1/2) Q (1 - 2H(e)) bits per pulse
    def test_perfect_channel(self):
        assert 0.5 * 1.0 * sifted_key_fraction(0.0) == 0.5

    def test_saturated_error_floored(self):
        assert 0.5 * 0.7 * sifted_key_fraction(0.5) == 0.0

    def test_near_threshold(self):
        # H(0.11) is just under 1/2, so the rate is tiny but positive
        r = 0.5 * 1.0 * sifted_key_fraction(0.11)
        assert 0 < r < 5e-4


class TestSiftedKeyFraction:
    @pytest.mark.parametrize(
        "qber,frozen",
        [
            (0.0027, 0.9461427),
            (0.0074, 0.8739691),
            (0.037, 0.5432719),
            (0.0096, 0.8437408),
            (0.0144, 0.7825587),
            (0.034, 0.5718579),
            (0.010, 0.8384137),
        ],
    )
    def test_frozen_values(self, qber, frozen):
        assert sifted_key_fraction(qber) == pytest.approx(frozen, abs=1e-6)

    @pytest.mark.parametrize(
        "qber,published",
        [
            (0.0027, 0.94),
            (0.0074, 0.87),
            (0.037, 0.54),
            (0.0096, 0.84),
            (0.0144, 0.79),
            (0.034, 0.57),
            (0.010, 0.84),
        ],
    )
    def test_published_rows(self, qber, published):
        # the source tables round both the QBER and the rate to two figures,
        # so exact arithmetic from the rounded QBER lands within 0.0075
        assert sifted_key_fraction(qber) == pytest.approx(published, abs=0.0075)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sifted_key_fraction(0.6)


class TestPoisson:
    def test_vacuum(self):
        assert poisson_pn(0.0, 0) == 1.0

    def test_mu_0p1_single(self):
        assert poisson_pn(0.1, 1) == pytest.approx(0.0905, abs=1e-4)

    def test_normalization(self):
        assert sum(poisson_pn(2.0, n) for n in range(51)) == pytest.approx(1.0, abs=1e-12)


class TestQ1Bound:
    # Q1 does not read the error rates, so zeros stand in for them
    def test_dead_channel(self):
        assert estimate_single_photon(GainStats(0.0, 0.0, 0.0, 0.0, 0.0), 0.5, 0.1).q1_lower == 0.0

    def test_ordering_enforced(self):
        stats = GainStats(0.1, 0.0, 0.05, 0.0, 0.0)
        with pytest.raises(ValueError):
            estimate_single_photon(stats, 0.5, 0.5)
        with pytest.raises(ValueError):
            estimate_single_photon(stats, 0.5, 0.0)

    def test_example_channel(self):
        eta, y0, mu, nu = 0.1, 1e-5, 0.5, 0.1
        stats = GainStats(gain(mu, eta, y0), 0.0, gain(nu, eta, y0), 0.0, y0)
        truth = q1_true(mu, eta, y0)
        assert truth == pytest.approx(0.030330, abs=1e-5)
        bound = estimate_single_photon(stats, mu, nu).q1_lower
        assert 0 < bound <= truth + 1e-12


class TestE1Bound:
    def test_all_background(self):
        # numerator exactly zero: every error attributed to dark counts
        y0, nu, q_nu = 1e-4, 0.1, 0.2
        e_nu = y0 / (2 * q_nu * math.exp(nu))
        est = estimate_single_photon(GainStats(0.5, 0.01, q_nu, e_nu, y0), 0.5, nu)
        assert est.q1_lower > 0
        assert est.e1_upper == pytest.approx(0.0, abs=1e-15)

    def test_example_channel(self):
        eta, y0, mu, nu, e_det = 0.1, 1e-5, 0.5, 0.1, 0.01
        stats = GainStats(
            gain(mu, eta, y0),
            qber_model(mu, eta, y0, e_det),
            gain(nu, eta, y0),
            qber_model(nu, eta, y0, e_det),
            y0,
        )
        bound = estimate_single_photon(stats, mu, nu).e1_upper
        assert e1_true(eta, y0, e_det) - 1e-12 <= bound <= 0.5

    def test_negative_numerator_clamped(self):
        est = estimate_single_photon(GainStats(0.05, 0.0, 0.01, 0.0, 1e-3), 0.5, 0.1)
        assert est.q1_lower > 0
        assert est.e1_upper == 0.0
        assert est.vacuous

    def test_vacuous_estimate_flagged(self):
        # decoy gain too small for the signal gain: the Q1 bound clamps to 0
        est = estimate_single_photon(GainStats(0.5, 0.01, 0.01, 0.01, 0.0), 0.5, 0.1)
        assert (est.q1_lower, est.e1_upper, est.vacuous) == (0.0, 0.5, True)


class TestBoundValidityRandomized:
    def test_bounds_never_violate_fock_truth(self):
        # randomized channels; truth from the Fock-expansion oracle
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            eta = 10 ** rng.uniform(-4, 0)
            y0 = rng.uniform(0, 1e-3)
            e_det = rng.uniform(0, 0.1)
            mu = rng.uniform(0.05, 1.0)
            nu = rng.uniform(1e-4, mu * 0.999)
            stats = GainStats(gain(mu, eta, y0), qber_model(mu, eta, y0, e_det),
                              gain(nu, eta, y0), qber_model(nu, eta, y0, e_det), y0)
            est = estimate_single_photon(stats, mu, nu)
            assert est.q1_lower <= q1_true(mu, eta, y0) + 1e-12
            if est.q1_lower > 0:
                assert est.e1_upper >= min(0.5, e1_true(eta, y0, e_det)) - 1e-12


class TestEstimate:
    def test_vacuous_flag(self):
        stats = GainStats(q_mu=0.0, e_mu=0.0, q_nu=0.0, e_nu=0.0, y0=0.0)
        est = estimate_single_photon(stats, 0.5, 0.1)
        assert est.vacuous
        assert est.q1_lower == 0.0
        assert est.e1_upper == 0.5


class TestKeyRate:
    def test_all_single_photon_perfect(self):
        stats = GainStats(q_mu=0.3, e_mu=0.0, q_nu=0.1, e_nu=0.0, y0=0.0)
        est = DecoyEstimate(q1_lower=0.3, e1_upper=0.0)
        res = decoy_key_rate(stats, est, f_ec=1.22)
        assert res.k_per_pulse == pytest.approx(0.15)
        assert not res.no_positive_key

    def test_saturated_e1_gives_zero(self):
        stats = GainStats(q_mu=0.3, e_mu=0.01, q_nu=0.1, e_nu=0.02, y0=1e-5)
        est = DecoyEstimate(q1_lower=0.2, e1_upper=0.5)
        res = decoy_key_rate(stats, est, f_ec=1.22)
        assert res.k_per_pulse == 0.0
        assert FLAG_NO_POSITIVE_KEY in res.flags

    def test_pipeline_positive_at_10p5(self, dark_only_params):
        res = evaluate_key_rate(dark_only_params.at_length(10.5), 0.5, 0.1)
        assert res.k_per_pulse > 0
        assert res.components["q1_lower"] > 0

    def test_never_beats_perfect_channel(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = ChannelParams(length_m=rng.uniform(0, 50), e_det=rng.uniform(0, 0.05))
            mu = rng.uniform(0.05, 1)
            nu = rng.uniform(1e-4, mu * 0.99)
            res = evaluate_key_rate(p, mu, nu)
            assert res.k_per_pulse <= 0.5 * res.components["q_mu"] * sifted_key_fraction(0.0) + 1e-15

    def test_deterministic(self, flume_params):
        a = evaluate_key_rate(flume_params.at_length(20.0), 0.4, 0.05)
        b = evaluate_key_rate(flume_params.at_length(20.0), 0.4, 0.05)
        assert a == b

    def test_qber_override_lowers_key(self, dark_only_params):
        p = dark_only_params.at_length(10.5)
        base = evaluate_key_rate(p, 0.5, 0.1)
        overridden = evaluate_key_rate(p, 0.5, 0.1, qber_override=0.02)
        assert overridden.k_per_pulse < base.k_per_pulse

    def test_batch_equals_single_calls(self, flume_params):
        ps = [flume_params.at_length(x) for x in (0.0, 20.0, 95.0)]
        mus, nus, qs = [0.5, 0.4, 0.3], [0.1, 0.05, 0.01], [None, 0.02, None]
        batch = evaluate_key_rate(ps, mus, nus, qber_override=qs)
        assert batch == [evaluate_key_rate(*args) for args in zip(ps, mus, nus, qs)]
        assert evaluate_key_rate(ps, mus, nus) == [evaluate_key_rate(*args) for args in zip(ps, mus, nus)]

    def test_batch_checks_each_point(self, flume_params):
        with pytest.raises(ValueError, match="ordering"):
            evaluate_key_rate([flume_params, flume_params], [0.5, 0.1], [0.1, 0.2])
        with pytest.raises(ValueError):
            evaluate_key_rate([flume_params, flume_params], [0.5], [0.1])

    def test_bits_per_second(self, dark_only_params):
        res = evaluate_key_rate(dark_only_params.at_length(10.5), 0.5, 0.1)
        payload = _result_payload(res, modulation_rate_hz=1e8)
        assert payload["bits_per_second"] == pytest.approx(res.k_per_pulse * 1e8)


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(0.1, 1.0),
    eta=st.floats(1e-3, 0.3),
    y0=st.floats(0, 1e-6),
    e_det=st.floats(0, 0.05),
)
def test_model_qber_matches_fock_oracle(mu, eta, y0, e_det):
    assert qber_model(mu, eta, y0, e_det) == pytest.approx(
        fock_qber(mu, eta, y0, e_det), abs=1e-9
    )


def test_fock_gain_oracle_cross_check():
    assert fock_gain(0.5, 0.1, 1e-5) == pytest.approx(1e-5 + 1 - math.exp(-0.05), abs=1e-10)
