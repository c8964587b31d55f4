import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uwqkd.qstate import (
    PolLabel,
    ProbMatrix,
    SpinOrbitState,
    make_pol_state,
    overlap_prob,
    qber_from_matrix,
    qplate_apply,
    superpose,
    vector_mub_states,
)


def random_state(rng, n_terms=3):
    keys = [(rng.choice(["L", "R"]), int(rng.integers(-3, 4))) for _ in range(n_terms)]
    amps = {}
    for k in keys:
        amps[k] = amps.get(k, 0) + complex(rng.normal(), rng.normal())
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return SpinOrbitState({k: a / norm for k, a in amps.items()})


class TestConstruction:
    def test_h_self_overlap(self):
        h = make_pol_state(PolLabel.H)
        assert overlap_prob(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_a_h_overlap_half(self):
        a = make_pol_state(PolLabel.A)
        h = make_pol_state(PolLabel.H)
        assert overlap_prob(a, h) == pytest.approx(0.5, abs=1e-12)

    def test_l_r_orthogonal(self):
        assert overlap_prob(make_pol_state(PolLabel.L), make_pol_state(PolLabel.R)) == 0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            SpinOrbitState({("L", 0): 1.0, ("R", 0): 1.0})

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            SpinOrbitState({("H", 0): 1.0})


class TestNonFiniteRejected:
    # NaN must not read as a normalized state or a certain detection
    def test_nan_amplitude(self):
        with pytest.raises(ValueError, match="not normalized"):
            SpinOrbitState({("L", 0): math.nan})

    @pytest.mark.parametrize("c", [math.nan, complex(0, math.nan)])
    def test_superpose_nan_coefficient(self, c):
        with pytest.raises(ValueError):
            superpose([(c, make_pol_state(PolLabel.H)), (1, make_pol_state(PolLabel.V))])

    def test_prob_matrix_nan_value(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            ProbMatrix(("s0",), ("p0", "p1"), np.array([[0.5, math.nan]]))


class TestLinearMub:
    def test_cross_basis_overlaps_half(self):
        hv = [make_pol_state(PolLabel.H), make_pol_state(PolLabel.V)]
        da = [make_pol_state(PolLabel.D), make_pol_state(PolLabel.A)]
        for s in hv:
            for t in da:
                assert overlap_prob(s, t) == pytest.approx(0.5, abs=1e-12)

    def test_within_basis_identity(self):
        for pair in ([PolLabel.H, PolLabel.V], [PolLabel.D, PolLabel.A]):
            states = [make_pol_state(x) for x in pair]
            assert overlap_prob(states[0], states[0]) == pytest.approx(1, abs=1e-12)
            assert overlap_prob(states[0], states[1]) == pytest.approx(0, abs=1e-12)


class TestQPlate:
    def test_left_to_right_oam_plus_one(self):
        out = qplate_apply(SpinOrbitState({("L", 0): 1.0}), 0.5)
        assert overlap_prob(out, SpinOrbitState({("R", 1): 1.0})) == pytest.approx(1, abs=1e-12)

    def test_right_to_left_oam_minus_one(self):
        out = qplate_apply(SpinOrbitState({("R", 0): 1.0}), 0.5)
        assert overlap_prob(out, SpinOrbitState({("L", -1): 1.0})) == pytest.approx(1, abs=1e-12)

    def test_v_gaussian_becomes_radial(self):
        out = qplate_apply(make_pol_state(PolLabel.V), 0.5)
        radial = superpose(
            [(1, SpinOrbitState({("L", -1): 1.0})), (1, SpinOrbitState({("R", 1): 1.0}))]
        )
        assert overlap_prob(out, radial) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_half_integer_charge(self):
        with pytest.raises(ValueError):
            qplate_apply(make_pol_state(PolLabel.H), 0.3)

    @pytest.mark.parametrize("label", list(PolLabel))
    @pytest.mark.parametrize("q", [0.5, 1.0, -1.5])
    def test_involution_and_unitarity(self, label, q):
        s = make_pol_state(label)
        once = qplate_apply(s, q)
        twice = qplate_apply(once, q)
        assert sum(abs(a) ** 2 for a in once.amplitudes.values()) == pytest.approx(1, abs=1e-12)
        assert overlap_prob(twice, s) == pytest.approx(1.0, abs=1e-12)

    def test_involution_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_state(rng)
            out = qplate_apply(qplate_apply(s, 0.5), 0.5)
            assert overlap_prob(out, s) == pytest.approx(1.0, abs=1e-12)


class TestVectorMub:
    def test_cross_basis_half(self):
        psi, phi = vector_mub_states()
        for s in psi:
            for t in phi:
                assert overlap_prob(s, t) == pytest.approx(0.5, abs=1e-12)

    def test_psi1_psi2_orthogonal(self):
        psi, _ = vector_mub_states()
        assert overlap_prob(psi[0], psi[1]) == pytest.approx(0.0, abs=1e-12)

    def test_psi1_phi1_half(self):
        # frozen from the direct inner product of the two superpositions:
        # <Psi1|Phi1> = (1 + i)/2, |.|^2 = 1/2
        psi, phi = vector_mub_states()
        assert abs(psi[0].inner(phi[0]) - (0.5 + 0.5j)) < 1e-12
        assert overlap_prob(psi[0], phi[0]) == pytest.approx(0.5, abs=1e-12)


def detection_matrix(sent, projections, row_labels=None, col_labels=None):
    """The detection matrix of pairwise overlaps, labelled s0, s1, ... and p0, p1, ... by default."""
    rows = tuple(row_labels or (f"s{i}" for i in range(len(sent))))
    cols = tuple(col_labels or (f"p{j}" for j in range(len(projections))))
    return ProbMatrix(rows, cols, np.array([[overlap_prob(s, p) for p in projections] for s in sent]))


class TestDetectionMatrix:
    LABELS = ["H", "V", "D", "A"]
    BASIS = {"H": 0, "V": 0, "D": 1, "A": 1}

    def states(self):
        return [make_pol_state(PolLabel(x)) for x in self.LABELS]

    def test_ideal_mub_structure(self):
        m = detection_matrix(self.states(), self.states(), self.LABELS, self.LABELS)
        expected = np.array(
            [
                [1, 0, 0.5, 0.5],
                [0, 1, 0.5, 0.5],
                [0.5, 0.5, 1, 0],
                [0.5, 0.5, 0, 1],
            ]
        )
        assert np.allclose(m.values, expected, atol=1e-12)

    def test_vector_modes_same_pattern(self):
        psi, phi = vector_mub_states()
        states = psi + phi
        m = detection_matrix(states, states)
        expected = np.array(
            [
                [1, 0, 0.5, 0.5],
                [0, 1, 0.5, 0.5],
                [0.5, 0.5, 1, 0],
                [0.5, 0.5, 0, 1],
            ]
        )
        assert np.allclose(m.values, expected, atol=1e-12)

    def test_single_state(self):
        h = make_pol_state(PolLabel.H)
        m = detection_matrix([h], [h])
        assert m.values.shape == (1, 1)
        assert m.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one sent state"):
            detection_matrix([], [make_pol_state(PolLabel.H)])
        with pytest.raises(ValueError, match="at least one sent state"):
            ProbMatrix(("H",), (), np.empty((1, 0)))

    @given(st.floats(0, 2 * math.pi))
    def test_global_phase_invariance(self, theta):
        h = make_pol_state(PolLabel.H)
        phase = cmath.exp(1j * theta)
        h2 = SpinOrbitState({k: phase * a for k, a in h.amplitudes.items()})
        m1 = detection_matrix([h], [make_pol_state(PolLabel.D)])
        m2 = detection_matrix([h2], [make_pol_state(PolLabel.D)])
        assert np.allclose(m1.values, m2.values, atol=1e-12)


class TestQber:
    LABELS = ["H", "V", "D", "A"]
    BASIS = {"H": 0, "V": 0, "D": 1, "A": 1}

    def ideal(self):
        states = [make_pol_state(PolLabel(x)) for x in self.LABELS]
        return detection_matrix(states, states, self.LABELS, self.LABELS)

    def test_ideal_is_zero(self):
        assert qber_from_matrix(self.ideal(), self.BASIS) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_half(self):
        m = ProbMatrix(tuple(self.LABELS), tuple(self.LABELS), np.full((4, 4), 0.5))
        assert qber_from_matrix(m, self.BASIS) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_error_fraction(self):
        # every within-basis wrong outcome carries 0.037 of the basis mass
        e = 0.037
        v = np.array(
            [
                [1 - e, e, 0.5, 0.5],
                [e, 1 - e, 0.5, 0.5],
                [0.5, 0.5, 1 - e, e],
                [0.5, 0.5, e, 1 - e],
            ]
        )
        m = ProbMatrix(tuple(self.LABELS), tuple(self.LABELS), v)
        assert qber_from_matrix(m, self.BASIS) == pytest.approx(0.037, abs=1e-12)

    @given(st.floats(0, 1))
    def test_convex_mixture(self, lam):
        ideal = self.ideal().values
        mixed = lam * ideal + (1 - lam) * np.full((4, 4), 0.5)
        m = ProbMatrix(tuple(self.LABELS), tuple(self.LABELS), mixed)
        assert qber_from_matrix(m, self.BASIS) == pytest.approx((1 - lam) / 2, abs=1e-12)

    def test_inconsistent_assignment_rejected(self):
        with pytest.raises(ValueError):
            qber_from_matrix(self.ideal(), {"H": 0, "V": 0, "D": 1})
