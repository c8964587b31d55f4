"""Shared fixtures and independent brute-force oracles.

The Fock-expansion oracles below deliberately avoid the closed-form gain
and bound expressions in uwqkd.decoy/uwqkd.channel: gains are Poisson
sums over per-photon-number yields, truncated at n = 50.
"""

import math

import pytest

from uwqkd.channel import ChannelParams

N_MAX = 50


def poisson_pn(mu, n):
    """Photon-number distribution of a weak coherent pulse, mu^n e^-mu / n!."""
    return mu**n * math.exp(-mu) / math.factorial(n)


def fock_yield(eta, y0, n):
    # detection probability of an n-photon pulse: the per-photon rule behind
    # channel._gain_qber's closed form, restated independently
    return min(1.0, y0 + 1.0 - (1.0 - eta) ** n)


def fock_gain(mu, eta, y0, n_max=N_MAX):
    return sum(poisson_pn(mu, n) * fock_yield(eta, y0, n) for n in range(n_max + 1))


def fock_error_gain(mu, eta, y0, e_det, n_max=N_MAX):
    """Poisson-weighted sum of e_n * Y_n (error mass per pulse)."""
    total = 0.0
    for n in range(n_max + 1):
        err = min(fock_yield(eta, y0, n), 0.5 * y0 + e_det * (1.0 - (1.0 - eta) ** n))
        total += poisson_pn(mu, n) * err
    return total


def fock_qber(mu, eta, y0, e_det, n_max=N_MAX):
    return fock_error_gain(mu, eta, y0, e_det, n_max) / fock_gain(mu, eta, y0, n_max)


def q1_true(mu, eta, y0):
    """Exact single-photon gain: Y1 * P1(mu)."""
    return fock_yield(eta, y0, 1) * mu * math.exp(-mu)


def e1_true(eta, y0, e_det):
    """Exact single-photon error rate."""
    return (0.5 * y0 + e_det * eta) / fock_yield(eta, y0, 1)


@pytest.fixture
def flume_params():
    """The measured channel: 0.57 dB/m, 300 Hz dark at 1 GHz, 0.6 x 0.188."""
    return ChannelParams()


@pytest.fixture
def dark_only_params():
    """Flume channel with errors from dark counts only (e_det = 0)."""
    return ChannelParams(e_det=0.0)
