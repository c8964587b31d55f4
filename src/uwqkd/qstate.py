"""Polarization and spin-orbit qubit algebra.

States are exact finite superpositions over (circular polarization, OAM)
basis kets.  Linear polarization labels follow the convention

    D = (H + V)/sqrt(2),   A = (H - V)/sqrt(2),
    L = (H + iV)/sqrt(2),  R = (H - iV)/sqrt(2),

so that a V-polarized Gaussian sent through a tuned q=1/2 plate comes out
as the radial mode (|L,-1> + |R,+1>)/sqrt(2) up to a global phase.  Only
overlap probabilities are contractual; global phases are never compared.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


class PolLabel(enum.Enum):
    """The six analyzer/preparation settings."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"
    L = "L"
    R = "R"


# (H, V) Jones vector of each label: the one statement of the convention
# above.  The circular amplitudes, the analyzer bras and the sampled fields
# of :mod:`uwqkd.tomography` all derive from it.
_JONES = {
    PolLabel.H: (1.0, 0.0),
    PolLabel.V: (0.0, 1.0),
    PolLabel.D: (1 / math.sqrt(2), 1 / math.sqrt(2)),
    PolLabel.A: (1 / math.sqrt(2), -1 / math.sqrt(2)),
    PolLabel.L: (1 / math.sqrt(2), 1j / math.sqrt(2)),
    PolLabel.R: (1 / math.sqrt(2), -1j / math.sqrt(2)),
}


class SpinOrbitState:
    """Normalized superposition over (circular polarization, OAM) kets.

    Immutable; the amplitude map is keyed by ('L'|'R', integer ell).
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes: dict[tuple[str, int], complex]):
        amps = {}
        for (pol, ell), a in amplitudes.items():
            if pol not in ("L", "R"):
                raise ValueError(f"circular polarization label must be L or R, got {pol!r}")
            if not isinstance(ell, (int, np.integer)):
                raise ValueError(f"OAM index must be an integer, got {ell!r}")
            a = complex(a)
            if a != 0:
                amps[(pol, int(ell))] = a
        norm2 = sum(abs(a) ** 2 for a in amps.values())
        if not abs(norm2 - 1.0) <= NORM_TOL:  # written so that NaN fails it
            raise ValueError(f"state not normalized: sum |a|^2 = {norm2!r}")
        self._amps = amps

    @property
    def amplitudes(self) -> dict[tuple[str, int], complex]:
        return dict(self._amps)

    def amplitude(self, pol: str, ell: int) -> complex:
        return self._amps.get((pol, ell), 0j)

    def inner(self, other: "SpinOrbitState") -> complex:
        """<self|other>."""
        return sum(a.conjugate() * other._amps.get(k, 0j) for k, a in self._amps.items())

    def __repr__(self):
        terms = " + ".join(f"({a:.4g})|{p},{l}>" for (p, l), a in sorted(self._amps.items()))
        return f"SpinOrbitState({terms})"


def make_pol_state(label: PolLabel, ell: int = 0) -> SpinOrbitState:
    """Pure polarization state in a single OAM mode (ell = 0 by default)."""
    jones = _JONES[PolLabel(label)]
    # <pol|label> for pol in {L, R}: the conjugated circular Jones vector dotted with the label's
    return SpinOrbitState({
        (pol, ell): sum(c.conjugate() * x for c, x in zip(_JONES[PolLabel(pol)], jones)) for pol in ("L", "R")
    })


def superpose(terms: list[tuple[complex, SpinOrbitState]]) -> SpinOrbitState:
    """Normalized linear combination sum_k c_k |state_k>."""
    amps: dict[tuple[str, int], complex] = {}
    for c, s in terms:
        for k, a in s._amps.items():
            amps[k] = amps.get(k, 0j) + complex(c) * a
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    if norm == 0:
        raise ValueError("superposition is the zero vector")
    return SpinOrbitState({k: a / norm for k, a in amps.items()})


def qplate_apply(state: SpinOrbitState, q: float) -> SpinOrbitState:
    """Tuned q-plate in the circular basis: (L, l) -> (R, l+2q), (R, l) -> (L, l-2q).

    2q must be an integer so the OAM shift stays integer.  The R -> L branch
    carries a relative minus sign; this is the phase gauge that sends V at
    ell = 0 to the radial mode for q = 1/2.
    """
    shift = 2 * q
    if abs(shift - round(shift)) > 1e-12:
        raise ValueError(f"topological charge must be a half-integer, got q={q}")
    shift = int(round(shift))
    amps: dict[tuple[str, int], complex] = {}
    for (pol, ell), a in state._amps.items():
        if pol == "L":
            amps[("R", ell + shift)] = amps.get(("R", ell + shift), 0j) + a
        else:
            amps[("L", ell - shift)] = amps.get(("L", ell - shift), 0j) - a
    return SpinOrbitState(amps)


def overlap_prob(a: SpinOrbitState, b: SpinOrbitState) -> float:
    """Detection probability |<a|b>|^2."""
    return min(1.0, abs(a.inner(b)) ** 2)


# The two vector vortex MUBs (radial/azimuthal and the two vortex sinks).
def vector_mub_states() -> tuple[list[SpinOrbitState], list[SpinOrbitState]]:
    l_minus = SpinOrbitState({("L", -1): 1.0})
    r_plus = SpinOrbitState({("R", +1): 1.0})
    psi = [
        superpose([(1, l_minus), (+1, r_plus)]),
        superpose([(1, l_minus), (-1, r_plus)]),
    ]
    phi = [
        superpose([(1, l_minus), (+1j, r_plus)]),
        superpose([(1, l_minus), (-1j, r_plus)]),
    ]
    return psi, phi


@dataclass(frozen=True)
class ProbMatrix:
    """Probability-of-detection matrix: rows = sent states, cols = projections."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not (self.row_labels and self.col_labels):
            raise ValueError("a detection matrix needs at least one sent state and one projection")
        if v.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("matrix shape does not match labels")
        if not np.all((v >= -1e-12) & (v <= 1 + 1e-12)):  # written so that NaN fails it
            raise ValueError("probabilities must lie in [0,1]")
        object.__setattr__(self, "values", v)


def qber_from_matrix(m: ProbMatrix, basis_assignment: dict[str, int]) -> float:
    """QBER from a detection matrix with rows/columns grouped into two MUBs.

    For each sent state, only the projections in the sender's basis count;
    the wrong-outcome mass there is divided by the within-basis mass, then
    averaged over sent states with equal weight.
    """
    for lab in m.row_labels + m.col_labels:
        if lab not in basis_assignment:
            raise ValueError(f"no basis assigned to label {lab!r}")
    per_state = []
    for i, row_lab in enumerate(m.row_labels):
        b = basis_assignment[row_lab]
        in_basis = [j for j, c in enumerate(m.col_labels) if basis_assignment[c] == b]
        if not in_basis:
            raise ValueError(f"no projections in the basis of sent state {row_lab!r}")
        total = float(sum(m.values[i, j] for j in in_basis))
        wrong = float(sum(m.values[i, j] for j in in_basis if m.col_labels[j] != row_lab))
        if total <= 0:
            raise ValueError(f"zero within-basis probability mass for {row_lab!r}")
        per_state.append(wrong / total)
    return float(np.mean(per_state))
