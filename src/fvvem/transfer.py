"""L2 projection operators between the FV modal space and the VEM space.

Built per vertex-count group: for the g cells of a group, V_P is a
(g, N_dof, n_k) stack and C_P a (g, n_k, N_dof) stack.  The Discretization
assembles them, and the Taylor load blocks C^T T, into sparse operators.
T, the change from the Taylor basis to the element's monomials, differs
from the identity in its constant row alone, so C^T T is a shift of the
moment columns and no dense T is formed.  C_P is the left inverse of V_P
built on the element's Pi0*, with no Gram solve of its own.
"""

from __future__ import annotations

import numpy as np

from .vem import ElementVem, solve_cells


class TransferError(Exception):
    pass


def build_transfer(elem: ElementVem, corrections: np.ndarray) -> tuple[np.ndarray, ...]:
    """V_P (g, N_dof, n_k) and C_P (g, n_k, N_dof) of a group, with C_P V_P = I,
    and V_P's right-hand side C^T T (g, N_dof, n_k), the Taylor load blocks.

    V_P maps FV modal (Taylor) coefficients to VEM dofs in the L2 sense; C_P
    maps VEM dofs back to modal coefficients.  `elem` is the group's stacked
    element and `corrections` (g, n_k) its cells' `TaylorBasis.corrections`.
    """
    # integral of Pi0 phi_i * beta_l: the Taylor function beta_l = m_l -
    # corrections_l m_0 (l >= 1) shifts the monomial moments C^T
    moments = elem.C.transpose(0, 2, 1).copy()
    moments[..., 1:] -= moments[..., :1] * corrections[:, None, 1:]
    # one step of iterative refinement: at k = 4 the mass matrices are
    # ill-conditioned enough that plain LU loses a digit past 1e-11
    Vp = solve_cells(elem.mass, moments, elem.cells, TransferError, "VEM mass matrix")
    Vp += np.linalg.solve(elem.mass, moments - elem.mass @ Vp)
    # C_P is the L2 projection T^-1 Pi0*, made the exact left inverse of V_P
    # on the modal space (an adjustment at the conditioning roundoff, below
    # the operators' own truncation level): (T^-1 Pi0* V_P)^-1 T^-1 Pi0*, in
    # which T^-1 cancels
    return Vp, np.linalg.solve(elem.pis_0 @ Vp, elem.pis_0), moments
