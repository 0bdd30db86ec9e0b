"""The per-group VEM blocks a Discretization gathers into its global
operators and then drops, rebuilt from its mesh for the test oracles."""

from fvvem import transfer, vem


def group_blocks(disc):
    """(group, element, V_P, C_P) for each vertex-count group of `disc`,
    built as the Discretization builds them."""
    for grp in disc.groups:
        elem = vem.build_element(disc.mesh, disc.geom, grp.idx, disc.k)
        T = transfer.taylor_to_monomial(disc.fvops.taylor, grp.idx)
        Vp, Cp, _ = transfer.build_transfer(elem, T)
        yield grp, elem, Vp, Cp
