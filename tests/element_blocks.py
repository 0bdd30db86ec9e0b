"""The per-group VEM blocks a Discretization gathers into its global
operators and then drops, rebuilt from its mesh for the test oracles, the
dense change of basis the Discretization applies as a shift, and V_P as the
mass solve that its interpolant D T replaced."""

import numpy as np

from fvvem import transfer, vem


def taylor_to_monomial(taylor, cells) -> np.ndarray:
    """Changes of basis T (g, n_k, n_k) of a `TaylorBasis` on `cells`, with
    beta_l = sum_a T[a, l] m_a."""
    T = np.tile(np.eye(taylor.nk), (len(cells), 1, 1))
    T[:, 0, 1:] = -taylor.corrections[cells, 1:]
    return T


def mass_solve_vp(elem, corrections) -> np.ndarray:
    """V_P (g, N_dof, n_k) as the L2 projection M_E^-1 C^T T, the stacked mass
    solve with one step of iterative refinement that the transfer made
    before it took the interpolant D T."""
    moments = elem.C.transpose(0, 2, 1).copy()
    moments[..., 1:] -= moments[..., :1] * corrections[:, None, 1:]
    Vp = np.linalg.solve(elem.mass, moments)
    Vp += np.linalg.solve(elem.mass, moments - elem.mass @ Vp)
    return Vp


def group_blocks(disc):
    """(group, element, V_P, C_P) for each vertex-count group of `disc`,
    built as the Discretization builds them."""
    for grp in disc.groups:
        elem = vem.build_element(disc.mesh, disc.geom, grp.idx, disc.k)
        Vp, Cp, _ = transfer.build_transfer(elem, disc.fvops.taylor.corrections[grp.idx])
        yield grp, elem, Vp, Cp
