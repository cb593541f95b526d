"""Curvature as an operator on 2-forms, and the geometric predicates built on it.

The Riemannian curvature at a point is packaged as the self-adjoint 6x6 matrix
of R-hat over the self-dual / anti-self-dual basis, in the block form

    [ W+ + s/12 I    Ric0      ]
    [ Ric0^T         W- + s/12 I ]

with W+/- the trace-free Weyl blocks and Ric0 the trace-free Ricci coupling.
Matrix entries are pairings sum_{i<j,k<l} a_ij R_ijkl b_kl against the
unit-norm basis forms, so the diagonal blocks carry s/12 on the trace and
s = 2 tr.  The star-scalar curvature is reported through the fixed convention
s* = 2 <R-hat F, F> with the fundamental form left unnormalized (norm sqrt2);
this matches s on Kahler input, which is the only place the package leans on
it.

Predicate booleans (self-dual, Einstein, Kahler, Ricci J-invariant) always
travel together with their numeric defect and the tolerance that was used, so
a report can never silently hide how close the call was.
"""

from dataclasses import dataclass

import numpy as np

from twistorlab.connection import LeviCivitaData, levi_civita
from twistorlab.exterior import SdAsdBasis, antisymmetric_array
from twistorlab.manifold import HermitianSurface, J_STANDARD, dF_form, push_slots

DEFAULT_PREDICATE_TOL = 1e-6


# ======================================================================
# the 6x6 operator
# ======================================================================

def _basis_arrays(basis: SdAsdBasis) -> np.ndarray:
    """Stack the six basis 2-forms as full antisymmetric 4x4 component arrays."""
    return antisymmetric_array(np.stack([f.vec for f in basis.all_forms()]), 4, 2).real


@dataclass(frozen=True)
class CurvatureOperator6:
    """R-hat over (alpha+_1, alpha+_2, alpha+_3, alpha-_1, alpha-_2, alpha-_3)."""
    point: np.ndarray
    matrix: np.ndarray   # (6, 6) real symmetric

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))


def curvature_operator(levi: LeviCivitaData) -> CurvatureOperator6:
    """The curvature operator matrix in the unit-norm SD/ASD basis.

    Entry (a, b) is the ordered-pair contraction of R_ijkl against basis
    forms a and b; because the basis is orthonormal these are the operator
    matrix entries of the block decomposition directly.
    """
    # sum over ordered index pairs: sum_{i<j,k<l} A_ij R_ijkl B_kl, with R
    # as a matrix over the index pairs (ij), (kl)
    arrs = _basis_arrays(SdAsdBasis.standard()).reshape(6, 16)
    M = 0.25 * push_slots(levi.R.reshape(16, 16), arrs.T, (0, 1))
    return CurvatureOperator6(point=levi.point, matrix=M)


@dataclass(frozen=True)
class WeylDecomposition:
    """Blocks of the 6x6 operator: trace-free Weyl halves, Ricci coupling, scalars."""
    point: np.ndarray
    Wplus: np.ndarray    # (3, 3) trace-free symmetric
    Wminus: np.ndarray   # (3, 3) trace-free symmetric
    Ric0: np.ndarray     # (3, 3) upper-right block
    s: float
    sstar: float

    def reassemble(self) -> np.ndarray:
        eye = np.eye(3)
        top = np.hstack([self.Wplus + self.s / 12.0 * eye, self.Ric0])
        bot = np.hstack([self.Ric0.T, self.Wminus + self.s / 12.0 * eye])
        return np.vstack([top, bot])


def decompose(op: CurvatureOperator6) -> WeylDecomposition:
    M = op.matrix
    Ms = 0.5 * (M + M.T)
    s = 2.0 * float(np.trace(Ms))
    eye = np.eye(3)
    # s* = 2 <R-hat F, F> with F = alpha+_1 unnormalized: each slot carries
    # an extra sqrt(2) against the unit-norm entries, so this is 4 M[0, 0].
    sstar = 4.0 * float(Ms[0, 0])
    return WeylDecomposition(
        point=op.point,
        Wplus=Ms[:3, :3] - s / 12.0 * eye,
        Wminus=Ms[3:, 3:] - s / 12.0 * eye,
        Ric0=Ms[:3, 3:],
        s=s,
        sstar=sstar,
    )


# ======================================================================
# Ricci tensor and predicates
# ======================================================================

def ricci_tensor(levi: LeviCivitaData) -> np.ndarray:
    """Ric[j, l] = sum_i R[i, j, i, l] in adapted-frame components."""
    return np.einsum("ijil->jl", levi.R)


def trace_free_ricci(ric: np.ndarray) -> np.ndarray:
    return ric - np.trace(ric) / 4.0 * np.eye(4)


@dataclass(frozen=True)
class ConditionFlags:
    """Geometric predicates with their defects; bool = (defect < tol)."""
    point: np.ndarray
    tol: float
    self_dual: bool
    self_dual_defect: float
    anti_self_dual: bool
    anti_self_dual_defect: float
    einstein: bool
    einstein_defect: float
    kahler: bool
    kahler_defect: float
    ricci_J_invariant: bool
    ricci_J_invariant_defect: float
    s: float
    sstar: float

    def as_dict(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "tolerance": self.tol,
            "self_dual": {"holds": self.self_dual, "defect": self.self_dual_defect},
            "anti_self_dual": {"holds": self.anti_self_dual, "defect": self.anti_self_dual_defect},
            "einstein": {"holds": self.einstein, "defect": self.einstein_defect},
            "kahler": {"holds": self.kahler, "defect": self.kahler_defect},
            "ricci_J_invariant": {"holds": self.ricci_J_invariant,
                                  "defect": self.ricci_J_invariant_defect},
            "scalar_curvature": self.s,
            "star_scalar_curvature": self.sstar,
        }


def predicates(dec: WeylDecomposition, ricci: np.ndarray, kahler_defect: float,
               tol: float = DEFAULT_PREDICATE_TOL) -> ConditionFlags:
    """Assemble flags from a decomposition, the Ricci tensor, and a Kahler defect.

    The Einstein defect is the Frobenius norm of the trace-free Ricci tensor
    (contracted independently of the 6x6 block, which is cross-checked in the
    test suite); Ricci J-invariance measures the commutator with the standard
    frame J.
    """
    r0 = trace_free_ricci(ricci)
    einstein_defect = float(np.linalg.norm(r0))
    ricJ_defect = float(np.linalg.norm(ricci @ J_STANDARD - J_STANDARD @ ricci))
    sd_defect = float(np.linalg.norm(dec.Wminus))
    asd_defect = float(np.linalg.norm(dec.Wplus))
    return ConditionFlags(
        point=dec.point, tol=tol,
        self_dual=sd_defect < tol, self_dual_defect=sd_defect,
        anti_self_dual=asd_defect < tol, anti_self_dual_defect=asd_defect,
        einstein=einstein_defect < tol, einstein_defect=einstein_defect,
        kahler=kahler_defect < tol, kahler_defect=float(kahler_defect),
        ricci_J_invariant=ricJ_defect < tol, ricci_J_invariant_defect=ricJ_defect,
        s=dec.s, sstar=dec.sstar,
    )


def condition_flags(M: HermitianSurface, x: np.ndarray, tol: float = DEFAULT_PREDICATE_TOL) -> ConditionFlags:
    """One-call predicate evaluation at a chart point."""
    x = np.asarray(x, dtype=float)
    lc = levi_civita(M, x)
    dec = decompose(curvature_operator(lc))
    ric = ricci_tensor(lc)
    kdef = dF_form(M, x).norm()
    return predicates(dec, ric, kdef, tol=tol)
