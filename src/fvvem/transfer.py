"""L2 projection operators between the FV modal space and the VEM space.

Built per vertex-count group: for the g cells of a group, V_P is a
(g, N_dof, n_k) stack and C_P a (g, n_k, N_dof) stack.  The Discretization
assembles them, and the Taylor load blocks C^T T, into sparse operators.
C_P is the left inverse of V_P built on the element's Pi0*, with no Gram
solve of its own.
"""

from __future__ import annotations

import numpy as np

from .fv import TaylorBasis
from .vem import ElementVem, solve_cells


class TransferError(Exception):
    pass


def taylor_to_monomial(taylor: TaylorBasis, cells) -> np.ndarray:
    """Changes of basis T (g, n_k, n_k) with beta_l = sum_a T[a, l] m_a."""
    T = np.tile(np.eye(taylor.nk), (len(cells), 1, 1))
    T[:, 0, 1:] = -taylor.corrections[cells, 1:]
    return T


def build_transfer(elem: ElementVem, T: np.ndarray) -> tuple[np.ndarray, ...]:
    """V_P (g, N_dof, n_k) and C_P (g, n_k, N_dof) of a group, with C_P V_P = I,
    and V_P's right-hand side C^T T (g, N_dof, n_k), the Taylor load blocks.

    V_P maps FV modal (Taylor) coefficients to VEM dofs in the L2 sense; C_P
    maps VEM dofs back to modal coefficients.  `elem` is the group's stacked
    element and T its Taylor-to-monomial changes of basis.
    """
    moments = elem.C.transpose(0, 2, 1) @ T         # integral of Pi0 phi_i * beta_l
    # one step of iterative refinement: at k = 4 the mass matrices are
    # ill-conditioned enough that plain LU loses a digit past 1e-11
    Vp = solve_cells(elem.mass, moments, elem.cells, TransferError, "VEM mass matrix")
    Vp += np.linalg.solve(elem.mass, moments - elem.mass @ Vp)
    # C_P is the L2 projection T^-1 Pi0*, made the exact left inverse of V_P
    # on the modal space (an adjustment at the conditioning roundoff, below
    # the operators' own truncation level): (T^-1 Pi0* V_P)^-1 T^-1 Pi0*, in
    # which T^-1 cancels
    return Vp, np.linalg.solve(elem.pis_0 @ Vp, elem.pis_0), moments
