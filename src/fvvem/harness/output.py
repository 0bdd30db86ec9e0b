"""VTK legacy and CSV writers for fields and convergence tables."""

from __future__ import annotations

import numpy as np

from ..mesh import format_loops


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_vtk(path: str, mesh, cell_data: dict, title: str = "fvvem fields"):
    """Legacy ASCII VTK with POLYGONS and CELL_DATA scalars; each cell's
    polygon gets its own points, in its own frame."""
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title + "\n")
        f.write("ASCII\n")
        f.write("DATASET POLYDATA\n")
        f.write(f"POINTS {len(mesh.loop_coords)} double\n")
        for x, y in mesh.loop_coords:
            f.write(f"{_fmt(x)} {_fmt(y)} 0\n")
        f.write(f"POLYGONS {mesh.n_cells} {len(mesh.loop_coords) + mesh.n_cells}\n")
        f.write(format_loops(mesh.cell_ptr, np.arange(len(mesh.loop_coords))))
        f.write(f"CELL_DATA {mesh.n_cells}\n")
        for name, values in cell_data.items():
            f.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
            for v in values:
                f.write(_fmt(float(v)) + "\n")


def write_error_csv(path: str, reports: list, variables: tuple):
    """Columns: h, then L2 and order per variable."""
    with open(path, "w") as f:
        header = ["h"]
        for name in variables:
            header += [f"L2_{name}", f"order_{name}"]
        f.write(",".join(header) + "\n")
        for rep in reports:
            row = [_fmt(rep.h)]
            for name in variables:
                row.append(_fmt(rep.l2(name)))
                row.append(_fmt(rep.orders.get(name, float("nan"))))
            f.write(",".join(row) + "\n")


def write_ledger(path: str, ledger: dict):
    with open(path, "w") as f:
        for key in sorted(ledger):
            f.write(f"{key} = {ledger[key]}\n")
