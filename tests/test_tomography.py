import math

import numpy as np
import pytest

from uwqkd.qstate import PolLabel, detection_matrix, make_pol_state, overlap_prob, vector_mub_states
from uwqkd.tomography import (
    MODE_KINDS,
    AberrationSpec,
    GridSpec,
    VectorField,
    apply_aberration,
    make_spin_orbit_field,
    make_vector_mode,
    mode_overlap,
    polarization_ellipse,
    project_all,
    project_intensity,
    reconstruct_stokes,
    zernike_phase,
)

GRID = GridSpec(n=96, extent_waists=8.0)


def uniform_jones_field(jones, grid=GRID):
    from uwqkd.tomography import VectorField, _normalize

    eh = np.full((grid.n, grid.n), jones[0], dtype=complex)
    ev = np.full((grid.n, grid.n), jones[1], dtype=complex)
    eh, ev = _normalize(eh, ev)
    return VectorField(eh, ev, grid)


def random_pure_field(rng, grid=GRID):
    amps = {
        ("L", -1): complex(rng.normal(), rng.normal()),
        ("R", +1): complex(rng.normal(), rng.normal()),
        ("L", +2): complex(rng.normal(), rng.normal()) * 0.3,
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return make_spin_orbit_field({k: a / norm for k, a in amps.items()}, grid)


class TestModes:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_vector_mode("spiral", GRID)

    def test_unknown_polarization_label(self):
        with pytest.raises(ValueError, match="'H'"):
            make_spin_orbit_field({("H", 1): 1.0}, GRID)

    def test_normalized(self):
        f = make_vector_mode("radial", GRID)
        assert f.total_intensity() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["radial", "azimuthal", "vortex_cw", "vortex_ccw"])
    def test_donut_null_on_axis(self, kind):
        f = make_vector_mode(kind, GridSpec(n=97, extent_waists=8.0))  # odd: center pixel on axis
        i = np.abs(f.eh) ** 2 + np.abs(f.ev) ** 2
        assert i[48, 48] / i.max() < 1e-6

    def test_radial_polarization_points_outward(self):
        f = make_vector_mode("radial", GRID)
        x, y = GRID.axes()
        stokes = reconstruct_stokes(project_all(f))
        theta = np.arctan2(y, x)
        for idx in zip(*np.nonzero(stokes.valid)):
            ori, ell = polarization_ellipse(
                (stokes.s1[idx], stokes.s2[idx], stokes.s3[idx])
            )
            dev = (ori - theta[idx]) % math.pi
            dev = min(dev, math.pi - dev)
            assert dev < 1e-6
            assert abs(ell) < 1e-9

    def test_radial_azimuthal_orthogonal(self):
        a = make_vector_mode("radial", GRID)
        b = make_vector_mode("azimuthal", GRID)
        assert mode_overlap(a, b) < 1e-9

    def test_vortex_pair_s2_sign_flip(self):
        cw = reconstruct_stokes(project_all(make_vector_mode("vortex_cw", GRID)))
        ccw = reconstruct_stokes(project_all(make_vector_mode("vortex_ccw", GRID)))
        m = cw.valid & ccw.valid
        assert np.allclose(cw.s2[m], -ccw.s2[m], atol=1e-9)
        assert np.allclose(cw.s3[m], 0.0, atol=1e-9)
        assert np.allclose(ccw.s3[m], 0.0, atol=1e-9)


class TestProjection:
    def test_uniform_h_field(self):
        f = uniform_jones_field((1.0, 0.0))
        assert project_intensity(f, PolLabel.H).sum() == pytest.approx(1.0, abs=1e-12)
        assert project_intensity(f, PolLabel.V).sum() == pytest.approx(0.0, abs=1e-12)

    def test_radial_h_projection_two_lobes(self):
        # analytic: radial field is A(r) (cos phi, sin phi), so the H
        # projection is A^2 cos^2 phi: lobes on the horizontal axis,
        # null line at x = 0
        f = make_vector_mode("radial", GRID)
        i_h = project_intensity(f, PolLabel.H)
        x, y = GRID.axes()
        i_tot = np.abs(f.eh) ** 2 + np.abs(f.ev) ** 2
        expected = i_tot * np.cos(np.arctan2(y, x)) ** 2
        assert np.allclose(i_h, expected, atol=1e-12)

    def test_basis_pair_completeness(self):
        rng = np.random.default_rng(3)
        f = random_pure_field(rng)
        i = project_all(f)
        hv = i[PolLabel.H] + i[PolLabel.V]
        da = i[PolLabel.D] + i[PolLabel.A]
        lr = i[PolLabel.L] + i[PolLabel.R]
        assert np.allclose(hv, da, atol=1e-12)
        assert np.allclose(hv, lr, atol=1e-12)


class TestStokes:
    def test_uniform_h(self):
        s = reconstruct_stokes(project_all(uniform_jones_field((1.0, 0.0))))
        assert np.allclose(s.s1[s.valid], 1.0, atol=1e-12)
        assert np.allclose(s.s2[s.valid], 0.0, atol=1e-12)
        assert np.allclose(s.s3[s.valid], 0.0, atol=1e-12)

    def test_uniform_l(self):
        jones = (1 / math.sqrt(2), 1j / math.sqrt(2))
        s = reconstruct_stokes(project_all(uniform_jones_field(jones)))
        assert np.allclose(s.s3[s.valid], 1.0, atol=1e-12)

    def test_round_trip_unit_dop(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            f = random_pure_field(rng)
            s = reconstruct_stokes(project_all(f))
            dop = np.sqrt(s.s1**2 + s.s2**2 + s.s3**2)[s.valid]
            assert np.max(np.abs(dop - 1.0)) < 1e-9

    def test_round_trip_matches_jones(self):
        rng = np.random.default_rng(13)
        f = random_pure_field(rng)
        s = reconstruct_stokes(project_all(f))
        i_tot = np.abs(f.eh) ** 2 + np.abs(f.ev) ** 2
        safe = np.where(s.valid, i_tot, 1.0)
        s1 = (np.abs(f.eh) ** 2 - np.abs(f.ev) ** 2) / safe
        s2 = 2 * np.real(np.conj(f.eh) * f.ev) / safe
        # s3 = +1 for L = (1, i)/sqrt(2): Im(conj(Eh) Ev) = +1/2 there
        s3 = 2 * np.imag(np.conj(f.eh) * f.ev) / safe
        assert np.max(np.abs((s.s1 - s1)[s.valid])) < 1e-9
        assert np.max(np.abs((s.s2 - s2)[s.valid])) < 1e-9
        assert np.max(np.abs((s.s3 - s3)[s.valid])) < 1e-9

    def test_shape_mismatch_rejected(self):
        i = project_all(make_vector_mode("radial", GRID))
        i[PolLabel.R] = i[PolLabel.R][:-1, :-1]
        with pytest.raises(ValueError):
            reconstruct_stokes(i)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("label", [PolLabel.H, PolLabel.A])
    def test_non_finite_intensity_rejected(self, label, value):
        i = project_all(make_vector_mode("radial", GRID))
        i[label] = i[label].copy()
        i[label][10, 20] = value
        with pytest.raises(ValueError, match="finite"):
            reconstruct_stokes(i)

    def test_negative_intensity_rejected(self):
        # D = -0.4 against 0.5 elsewhere would give s2 = -9 at every pixel
        i = {lab: np.full((4, 4), 0.5) for lab in PolLabel}
        i[PolLabel.D] = np.full((4, 4), -0.4)
        with pytest.raises(ValueError, match=">= 0"):
            reconstruct_stokes(i)
        i[PolLabel.D] = np.full((4, 4), -0.0)  # a negative zero is not negative
        assert reconstruct_stokes(i).valid.all()


class TestAberration:
    def test_zero_coefficients_identity(self):
        f = make_vector_mode("radial", GRID)
        g = apply_aberration(f, AberrationSpec())
        assert g.eh is f.eh and g.ev is f.ev

    def test_power_preserved(self):
        f = make_vector_mode("radial", GRID)
        g = apply_aberration(f, AberrationSpec(tip=0.7, astig_oblique=0.5, defocus=0.2))
        assert g.total_intensity() == pytest.approx(f.total_intensity(), abs=1e-12)

    def test_common_phase_leaves_stokes_invariant(self):
        f = make_vector_mode("radial", GRID)
        g = apply_aberration(f, AberrationSpec(tip=math.pi))
        s0 = reconstruct_stokes(project_all(f))
        s1 = reconstruct_stokes(project_all(g))
        assert np.allclose(s0.s1, s1.s1, atol=1e-12)
        assert np.allclose(s0.s2, s1.s2, atol=1e-12)
        assert np.allclose(s0.s3, s1.s3, atol=1e-12)

    def test_astigmatism_degrades_overlap_monotonically(self):
        base = make_vector_mode("radial", GRID)
        overlaps = []
        for c in np.linspace(0.0, 2.0, 9):
            g = apply_aberration(base, AberrationSpec(astig_vertical=float(c)))
            overlaps.append(mode_overlap(base, g))
        assert overlaps[0] == pytest.approx(1.0, abs=1e-12)
        assert all(b < a for a, b in zip(overlaps[1:], overlaps[2:]))
        assert overlaps[1] < 1.0

    def test_random_spec_deterministic(self):
        a = AberrationSpec.random(99, 10.0, 0.05)
        b = AberrationSpec.random(99, 10.0, 0.05)
        assert a == b
        assert AberrationSpec.random(100, 10.0, 0.05) != a

    def test_rms_scales_with_length(self):
        short = AberrationSpec.random(1, 1.0, 0.05)
        long = AberrationSpec.random(1, 10.0, 0.05)
        assert np.allclose(np.array(long.coefficients()), 10 * np.array(short.coefficients()))

    @pytest.mark.parametrize("field", ["tip", "tilt", "astig_oblique", "astig_vertical", "defocus"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficient_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AberrationSpec(**{field: value})

    @pytest.mark.parametrize(
        "length,rms,field",
        [
            (5.0, float("nan"), "rms_rad_per_m"),
            (5.0, -0.05, "rms_rad_per_m"),
            (5.0, float("inf"), "rms_rad_per_m"),
            (float("nan"), 0.05, "length_m"),
            (-1.0, 0.05, "length_m"),
            (float("inf"), 0.05, "length_m"),
        ],
    )
    def test_random_bad_scale_rejected(self, length, rms, field):
        with pytest.raises(ValueError, match=field):
            AberrationSpec.random(0, length, rms)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None])
    def test_random_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            AberrationSpec.random(seed, 5.0, 0.05)

    def test_random_zero_scale_is_flat(self):
        assert AberrationSpec.random(3, 0.0, 0.05) == AberrationSpec()
        assert AberrationSpec.random(3, 5.0, 0.0) == AberrationSpec()

    def test_zernike_terms_shape(self):
        screen = zernike_phase(GRID, AberrationSpec(defocus=1.0))
        x, y = GRID.axes()
        half = GRID.extent_waists / 2
        rho2 = (x**2 + y**2) / half**2
        assert np.allclose(screen, math.sqrt(3) * (2 * rho2 - 1), atol=1e-12)


class TestEllipse:
    def test_h_linear(self):
        assert polarization_ellipse((1, 0, 0)) == pytest.approx((0.0, 0.0))

    def test_diagonal(self):
        ori, ell = polarization_ellipse((0, 1, 0))
        assert ori == pytest.approx(math.pi / 4)
        assert ell == pytest.approx(0.0)

    def test_circular(self):
        ori, ell = polarization_ellipse((0, 0, 1))
        assert ell == pytest.approx(math.pi / 4)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            polarization_ellipse((0, 0, 0))

    @pytest.mark.parametrize("s", [(math.nan, 0, 0), (0, 0, math.nan), (math.inf, 0, 0)])
    def test_non_finite_rejected(self, s):
        with pytest.raises(ValueError, match="undefined polarization"):
            polarization_ellipse(s)


class TestOverlap:
    def test_self_overlap(self):
        f = make_vector_mode("vortex_cw", GRID)
        assert mode_overlap(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_and_phase_invariant(self):
        rng = np.random.default_rng(8)
        a, b = random_pure_field(rng), random_pure_field(rng)
        from uwqkd.tomography import VectorField

        assert mode_overlap(a, b) == pytest.approx(mode_overlap(b, a), abs=1e-12)
        phase = np.exp(1j * 0.9)
        a2 = VectorField(a.eh * phase, a.ev * phase, a.grid)
        assert mode_overlap(a2, b) == pytest.approx(mode_overlap(a, b), abs=1e-12)

    def test_shape_mismatch(self):
        a = make_vector_mode("radial", GRID)
        b = make_vector_mode("radial", GridSpec(n=64, extent_waists=8.0))
        with pytest.raises(ValueError):
            mode_overlap(a, b)

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_zero_or_nan_field_rejected(self, value):
        # a fidelity of 1.0 against an empty or NaN field would read as a perfect channel
        a = make_vector_mode("radial", GRID)
        bad = VectorField(np.full_like(a.eh, value), np.full_like(a.ev, value), GRID)
        for x, y in ((a, bad), (bad, a)):
            with pytest.raises(ValueError, match="field"):
                mode_overlap(x, y)


class TestConventionAgreement:
    """The sampled fields and the state algebra share one Jones table; check it end to end."""

    def test_vector_mub_detection_matrix_two_ways(self):
        grid = GridSpec(n=64, extent_waists=8.0)
        fields = [make_vector_mode(kind, grid) for kind in MODE_KINDS]
        sampled = np.array([[mode_overlap(a, b) for b in fields] for a in fields])
        psi, phi = vector_mub_states()
        algebra = detection_matrix(psi + phi, psi + phi).values
        assert np.max(np.abs(sampled - algebra)) <= 1e-12

    @pytest.mark.parametrize("ell", [-1, 0, 1])
    @pytest.mark.parametrize("label", list(PolLabel))
    def test_analyzer_fraction_is_overlap_prob(self, label, ell):
        grid = GridSpec(n=32, extent_waists=8.0)
        sent = make_pol_state(label, ell)
        f = make_spin_orbit_field(sent.amplitudes, grid)
        for analyzer in PolLabel:
            fraction = float(project_intensity(f, analyzer).sum()) / f.total_intensity()
            assert abs(fraction - overlap_prob(make_pol_state(analyzer, ell), sent)) <= 1e-12


def test_grid_invariants():
    with pytest.raises(ValueError):
        GridSpec(n=16)
    with pytest.raises(ValueError):
        GridSpec(n=64, extent_waists=2.0)
    for n in (64.5, 64.0, True):
        with pytest.raises(ValueError, match=r"^n must be an int"):
            GridSpec(n=n)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"extent_waists": float("nan")}, "extent_waists"),
        ({"extent_waists": float("inf")}, "extent_waists"),
    ],
)
def test_grid_rejects_bad_scale(kwargs, field):
    with pytest.raises(ValueError, match=field):
        GridSpec(n=64, **kwargs)
