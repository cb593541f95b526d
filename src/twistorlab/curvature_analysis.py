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
from typing import List, Union

import numpy as np

from twistorlab.connection import LeviCivitaData, dF_array, levi_civita
from twistorlab.exterior import SdAsdBasis, antisymmetric_array, norms, read_only, slot_keys
from twistorlab.manifold import HermitianSurface, J_STANDARD, push_slots, replay

DEFAULT_PREDICATE_TOL = 1e-6


# ======================================================================
# the 6x6 operator
# ======================================================================

def _basis_arrays(basis: SdAsdBasis) -> np.ndarray:
    """Stack the six basis 2-forms as full antisymmetric 4x4 component arrays."""
    return antisymmetric_array(np.stack([f.vec for f in basis.all_forms()]), 4, 2).real


# the standard basis forms as the columns (16, 6) of their component arrays
# over the index pairs (ij), built once
_BASIS_COLUMNS = read_only(_basis_arrays(SdAsdBasis.standard()).reshape(6, 16).T)


@dataclass(frozen=True)
class CurvatureOperator6:
    """R-hat over (alpha+_1, alpha+_2, alpha+_3, alpha-_1, alpha-_2, alpha-_3);
    `symmetry_defect` is of one point's matrix."""
    point: np.ndarray
    matrix: np.ndarray   # (6, 6) real symmetric, (n, 6, 6) for a stack

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))


def curvature_operator(levi: LeviCivitaData) -> CurvatureOperator6:
    """The curvature operator matrix in the unit-norm SD/ASD basis, at the
    point of `levi` or at each point of a stack.

    Entry (a, b) is the ordered-pair contraction of R_ijkl against basis
    forms a and b; because the basis is orthonormal these are the operator
    matrix entries of the block decomposition directly.
    """
    # sum over ordered index pairs: sum_{i<j,k<l} A_ij R_ijkl B_kl, with R
    # as a matrix over the index pairs (ij), (kl)
    R = levi.R.reshape(levi.R.shape[:-4] + (16, 16))
    M = 0.25 * push_slots(R, _BASIS_COLUMNS, (R.ndim - 2, R.ndim - 1))
    return CurvatureOperator6(point=levi.point, matrix=M)


@dataclass(frozen=True)
class WeylDecomposition:
    """Blocks of the 6x6 operator: trace-free Weyl halves, Ricci coupling,
    scalars; for a stack of n points every field gains a leading axis n
    (`reassemble` takes one point)."""
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
    Ms = 0.5 * (M + np.swapaxes(M, -1, -2))
    s = 2.0 * np.trace(Ms, axis1=-2, axis2=-1)
    shift = np.multiply.outer(s / 12.0, np.eye(3))
    # s* = 2 <R-hat F, F> with F = alpha+_1 unnormalized: each slot carries
    # an extra sqrt(2) against the unit-norm entries, so this is 4 M[0, 0].
    sstar = 4.0 * Ms[..., 0, 0]
    return WeylDecomposition(
        point=op.point,
        Wplus=Ms[..., :3, :3] - shift,
        Wminus=Ms[..., 3:, 3:] - shift,
        Ric0=Ms[..., :3, 3:],
        s=s,
        sstar=sstar,
    )


# ======================================================================
# Ricci tensor and predicates
# ======================================================================

def ricci_tensor(levi: LeviCivitaData) -> np.ndarray:
    """Ric[j, l] = sum_i R[i, j, i, l] in adapted-frame components, (4, 4) or
    (n, 4, 4) for a stack."""
    return np.einsum("...ijil->...jl", levi.R)


def trace_free_ricci(ric: np.ndarray) -> np.ndarray:
    return ric - np.multiply.outer(np.trace(ric, axis1=-2, axis2=-1) / 4.0, np.eye(4))


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
               tol: float = DEFAULT_PREDICATE_TOL) -> Union[ConditionFlags, List[ConditionFlags]]:
    """Assemble flags from a decomposition, the Ricci tensor, and a Kahler defect:
    one ConditionFlags, or a list of one per point for a stack (`ricci`
    (n, 4, 4) and `kahler_defect` (n,)).

    The Einstein defect is the Frobenius norm of the trace-free Ricci tensor
    (contracted independently of the 6x6 block, which is cross-checked in the
    test suite); Ricci J-invariance measures the commutator with the standard
    frame J.  Each norm is `np.linalg.norm` of one point's block, a BLAS
    sum whose order a norm over a stack axis would not keep.
    """
    blocks = [np.reshape(a, (-1,) + a.shape[-2:]) for a in (
        trace_free_ricci(ricci), ricci @ J_STANDARD - J_STANDARD @ ricci, dec.Wminus, dec.Wplus)]
    scalars = zip(*(np.ravel(v).tolist() for v in (kahler_defect, dec.s, dec.sstar)))
    flags = []
    for point, (kdef, s, sstar), *mats in zip(np.reshape(dec.point, (-1, 4)), scalars, *blocks):
        einstein_defect, ricJ_defect, sd_defect, asd_defect = (float(np.linalg.norm(m)) for m in mats)
        flags.append(ConditionFlags(
            point=point, tol=tol,
            self_dual=sd_defect < tol, self_dual_defect=sd_defect,
            anti_self_dual=asd_defect < tol, anti_self_dual_defect=asd_defect,
            einstein=einstein_defect < tol, einstein_defect=einstein_defect,
            kahler=kdef < tol, kahler_defect=kdef,
            ricci_J_invariant=ricJ_defect < tol, ricci_J_invariant_defect=ricJ_defect,
            s=s, sstar=sstar,
        ))
    return flags[0] if np.ndim(dec.s) == 0 else flags


# the slots (a < b < c) of a 3-form in dimension 4, as index arrays into dF
_DF_SLOTS = tuple(np.array(slot_keys(4, 3)).T)


def condition_flags(M: HermitianSurface, x: np.ndarray,
                    tol: float = DEFAULT_PREDICATE_TOL) -> Union[ConditionFlags, List[ConditionFlags]]:
    """The predicates at a chart point x (4,), or a list of them for every
    point of a stack x (n, 4), each with the bits of its own one-point call.

    A stack makes one `levi_civita` call and one pass of the curvature
    algebra; the Kahler defect |dF| reads dF from the point memo's base
    table (`dF_array`; filled at the base points by a coframe sweep of any
    connection), so it runs no FD pass there.  A point where the metric is
    not finite raises ValueError, where its defects would be NaN with "no"
    verdicts; a stack raises the error of its first failing point.
    """
    def data(x):
        finite = np.isfinite(M.metric(x)).reshape(-1, 16).all(axis=1)
        if not finite.all():
            raise ValueError(f"metric not finite at point {x.reshape(-1, 4)[np.argmin(finite)].tolist()}")
        return levi_civita(M, x), dF_array(M, x)

    x = np.asarray(x, dtype=float)
    lc, dF = replay(data, x) if x.ndim > 1 else data(x)
    kdef = norms(dF[(...,) + _DF_SLOTS])
    return predicates(decompose(curvature_operator(lc)), ricci_tensor(lc), kdef, tol=tol)
