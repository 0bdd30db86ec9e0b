"""L2 projection operators between the FV modal space and the VEM space.

Built per vertex-count group: for the g cells of a group, V_P is a
(g, N_dof, n_k) stack and C_P a (g, n_k, N_dof) stack.  The Discretization
assembles them, and the Taylor load blocks C^T T, on one pattern.  The
stabilised mass is exact on P_k (Pi0* D = I, so M_E D = C^T), so the L2
projection of a cell polynomial is its VEM interpolant: V_P = M_E^-1 C^T T
= D T, with no mass solve.  T, the change from the Taylor basis to the
element's monomials, differs from the identity in its constant row alone,
so D T and C^T T are shifts of the columns and no dense T is formed.  C_P
is the left inverse of V_P built on the element's Pi0*.
"""

from __future__ import annotations

import numpy as np

from .vem import ElementVem


def build_transfer(elem: ElementVem, corrections: np.ndarray) -> tuple[np.ndarray, ...]:
    """V_P (g, N_dof, n_k) and C_P (g, n_k, N_dof) of a group, with C_P V_P = I,
    and V_P's right-hand side C^T T (g, N_dof, n_k), the Taylor load blocks.

    V_P maps FV modal (Taylor) coefficients to VEM dofs in the L2 sense; C_P
    maps VEM dofs back to modal coefficients.  `elem` is the group's stacked
    element and `corrections` (g, n_k) its cells' `TaylorBasis.corrections`.
    """
    # the Taylor function beta_l = m_l - corrections_l m_0 (l >= 1) shifts
    # the monomial dofs D into V_P = D T and the moments C^T into C^T T
    Vp, moments = elem.D.copy(), elem.C.transpose(0, 2, 1).copy()
    for blk in (Vp, moments):
        blk[..., 1:] -= blk[..., :1] * corrections[:, None, 1:]
    # C_P is the L2 projection T^-1 Pi0*, made the exact left inverse of V_P
    # on the modal space (Pi0* D - I is roundoff, up to 1e-11 at k = 4):
    # (T^-1 Pi0* V_P)^-1 T^-1 Pi0*, in which T^-1 cancels
    return Vp, np.linalg.solve(elem.pis_0 @ Vp, elem.pis_0), moments
