"""Extreme and invalid inputs to the key-rate pipeline, the config loader, the
Monte Carlo session and the tomography command.

Every case ends in a ``ValueError`` that names what was wrong, or in a
finite key rate with finite components that carries ``no_positive_key``
exactly when K = 0.  NaN, inf and subnormal intensities, mu next to nu, zero
loss, Y0 near 1 and ``mu_max`` above 709 (where e^mu overflows) are covered,
and so is a Monte Carlo mu above numpy's largest Poisson mean.  Tomography
takes aberration coefficients up to +-1e308 and grid extents up to 1e308 and
either writes its maps or exits 1 naming the field; a wider extent exits 1
naming ``extent_waists``.
Numpy warnings are errors in this suite, so none may escape either.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uwqkd.channel import ChannelParams, ZeroGainError, gain_stats
from uwqkd.cli import main
from uwqkd.config import config_from_dict, config_to_dict, load_config
from uwqkd.decoy import FLAG_NO_POSITIVE_KEY, estimate_single_photon, evaluate_key_rate
from uwqkd.montecarlo import _MU_MAX, simulate_session
from uwqkd.optimize import OptimizerConfig, optimize_mu_nu

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300,
           709.78, 710.0, 1e308]
KEYS = sorted(config_to_dict(load_config(None)))

special = st.sampled_from(SPECIAL)
channels = st.builds(
    ChannelParams,
    alpha_db_per_m=st.sampled_from([0.0, 0.57]) | st.floats(0, 5),
    length_m=st.sampled_from([0.0, 10.0]) | st.floats(0, 1e4),
    eta_detector=st.floats(1e-6, 1),
    eta_bob=st.sampled_from([1.0, 0.188]) | st.floats(1e-6, 1),
    # at the default 1 ns window, 1e9 Hz of dark counts is Y0 = 1
    dark_rate_hz=st.sampled_from([0.0, 300.0, 9.99e8, 1e9]) | st.floats(0, 1e9),
    e_det=st.floats(0, 0.49),
)


@st.composite
def intensities(draw):
    """(mu, nu): special values, ordinary ones, and nu one float below mu."""
    mu = draw(special | st.floats(1e-6, 1e3))
    nu = draw(special | st.floats(0, 1).map(lambda f: mu * f) | st.just(float(np.nextafter(mu, 0))))
    return mu, nu


def check_result(res):
    assert math.isfinite(res.k_per_pulse) and res.k_per_pulse >= 0
    assert all(math.isfinite(v) for v in res.components.values()), res.components
    assert (FLAG_NO_POSITIVE_KEY in res.flags) == (res.k_per_pulse == 0)


def finite_or_rejected(call):
    """The result of ``call()``, checked; None if it raised a ValueError naming mu and nu, or zero gain."""
    try:
        res = call()
    except ZeroGainError:
        return None
    except ValueError as exc:
        assert "mu=" in str(exc) and "nu=" in str(exc), exc
        return None
    check_result(res)
    return res


@settings(max_examples=300, deadline=None)
@given(p=channels, mu_nu=intensities(), qber=st.none() | st.floats(0, 0.5))
def test_key_rate_is_finite_or_rejected(p, mu_nu, qber):
    mu, nu = mu_nu
    finite_or_rejected(lambda: evaluate_key_rate(p, mu, nu, qber_override=qber))


@pytest.mark.parametrize("mu,nu", [(0.5, 1e-320), (1e308, 0.1), (710.0, 0.1)])
def test_non_finite_bounds_name_mu_and_nu(mu, nu):
    p = ChannelParams(length_m=10.0)
    with pytest.raises(ValueError, match=re.escape(f"not finite at mu={mu}, nu={nu}")):
        evaluate_key_rate(p, mu, nu)
    with pytest.raises(ValueError, match=re.escape(f"not finite at mu={mu}, nu={nu}")):
        estimate_single_photon(gain_stats(p, mu, nu), mu, nu)


optimizer_configs = st.builds(
    OptimizerConfig,
    mu_max=st.sampled_from([1.0, 709.0, 709.79, 710.0, 1000.0, 1e300]) | st.floats(1.0, 1e4),
    nu_min=st.sampled_from([1e-4, 1e-300, 5e-324]) | st.floats(1e-12, 0.1),
    coarse_grid=st.integers(8, 16),
    refine_iterations=st.integers(0, 2),
)


@settings(max_examples=150, deadline=None)
@given(p=channels, cfg=optimizer_configs)
def test_optimum_is_finite_or_rejected(p, cfg):
    res = finite_or_rejected(lambda: optimize_mu_nu(p, cfg))
    assert res is None or cfg.nu_min <= res.nu < res.mu <= cfg.mu_max


@pytest.mark.parametrize("text", ['{"mu_max": 1000}', '{"nu_min": 1e-300}'])
def test_overflowing_grid_points_never_win(text):
    # exp(mu) overflows above mu ~ 709.8 and nu_min = 1e-300 underflows r (mu - nu):
    # those grid points are NaN, and the optimum is the one in the finite part of the box
    cfg = config_from_dict(json.loads(text))
    res = optimize_mu_nu(cfg.channel.at_length(10.0), cfg.optimizer)
    check_result(res)
    assert res.k_per_pulse == pytest.approx(4.962e-3, rel=1e-3)
    assert res.mu == pytest.approx(0.918, rel=1e-3)


# extreme values that the records accept, merged with up to two arbitrary entries
valid_extremes = st.fixed_dictionaries({}, optional={
    "mu_max": st.sampled_from([1.0, 709.79, 710.0, 1000.0, 1e300]),
    "nu_min": st.sampled_from([1e-4, 1e-300, 5e-324]),
    "alpha_db_per_m": st.sampled_from([0.0, 0.57]),
    "dark_rate_hz": st.sampled_from([0.0, 300.0, 1e9]),
    "e_det": st.sampled_from([0.0, 0.49]),
    "coarse_grid": st.integers(8, 16),
    "refine_iterations": st.integers(0, 2),
})
anything = special | st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2, 16) | st.booleans()
arbitrary = st.dictionaries(st.sampled_from(KEYS), anything | st.none() | st.text(max_size=3), max_size=2)


@settings(max_examples=200, deadline=None)
@given(d=st.tuples(valid_extremes, arbitrary).map(lambda t: {**t[0], **t[1]}))
# a subnormal pulse rate gives a ~4.5e307 s window and an infinite Y0
@example(d={"alpha_db_per_m": 0.0, "pulse_rate_hz": 2.2250738585072014e-308})
def test_config_is_rejected_or_gives_a_finite_optimum(d):
    try:
        cfg = config_from_dict(d)
    except ValueError as exc:
        assert any(key in str(exc) for key in KEYS), exc
        return
    finite_or_rejected(lambda: optimize_mu_nu(cfg.channel, cfg.optimizer))


def test_monte_carlo_mu_beyond_poisson_limit_names_mu(capsys):
    # numpy's Poisson refuses means above ~9.2e18 with a message that names no field
    s = simulate_session(ChannelParams(), _MU_MAX, 10, 0)
    assert s.detections == 10
    with pytest.raises(ValueError, match="^mu must be"):
        simulate_session(ChannelParams(), float(np.nextafter(_MU_MAX, math.inf)), 10, 0)
    assert main(["montecarlo", "--mu", "1e19", "--n-pulses", "10"]) == 1
    assert "error: mu must be" in capsys.readouterr().err


COEFFICIENTS = ("tip", "tilt", "astig_oblique", "astig_vertical", "defocus")
huge = st.sampled_from([0.0, 1e308, -1e308, 1e154]) | st.floats(-1e308, 1e308)


@pytest.fixture(scope="module")
def tomography_out(tmp_path_factory):
    return tmp_path_factory.mktemp("tomography") / "t"


@settings(max_examples=100, deadline=None)
@given(coefficients=st.dictionaries(st.sampled_from(COEFFICIENTS), huge, max_size=3),
       extent=st.sampled_from([4.0, 60.0, 1e3, 1e308]) | st.floats(4, 1e308))
# tip * 2 would overflow to inf in the screen, which the CLI records but never builds: exit 0
@example(coefficients={"tip": 1e308}, extent=8.0)
# x**2 would overflow, and every pixel is dark
@example(coefficients={}, extent=1e308)
# the pixel axis overflowed in np.linspace; GridSpec now rejects it
@example(coefficients={}, extent=1.7976931348623157e308)
def test_tomography_writes_maps_or_names_the_field(coefficients, extent, tomography_out):
    flags = [f"--{name.replace('_', '-')}={c!r}" for name, c in coefficients.items()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["tomography", "--kind", "radial", "--n", "32", f"--extent={extent!r}", *flags,
                   "--out", str(tomography_out)])
    message = err.getvalue()
    if rc == 0:
        assert not message
    elif "non-finite phase screen" in message:
        assert rc == 1 and all(f"'{name}': " in message for name in COEFFICIENTS), message
    elif extent > 1e308:
        assert rc == 1 and f"extent_waists must be >= 4 and <= 1e308, got {extent!r}" in message, message
    else:
        assert rc == 1 and f"n=32, extent_waists={extent!r} grid" in message, message
