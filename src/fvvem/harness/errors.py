"""Error norms and reports for benchmark runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mesh import sample_at


@dataclass
class ErrorReport:
    """Per-variable L2/Linf errors plus run metadata."""

    h: float
    errors: dict           # name -> (L2, Linf)
    steps: int = 0
    orders: dict = field(default_factory=dict)   # name -> observed order

    def l2(self, name):
        return self.errors[name][0]

    def linf(self, name):
        return self.errors[name][1]


def error_norms(disc, coeffs_by_name: dict, exact_by_name: dict, t: float,
                h: float) -> ErrorReport:
    """L2 via interior quadrature of (q_h - q_ex)^2; Linf over the nodes.

    coeffs_by_name maps a variable to per-cell Taylor coefficients (ncell, nk)
    or to plain cell values (ncell,) used as constants.
    """
    errs = {}
    for name, coeffs in coeffs_by_name.items():
        exact = exact_by_name[name]
        if coeffs.ndim == 2:
            coeffs = disc.to_monomial(coeffs)
        tot = 0.0
        worst = 0.0
        for grp in disc.groups:
            if coeffs.ndim == 1:
                vals = np.repeat(coeffs[grp.idx][:, None], grp.qw.shape[1], axis=1)
            else:
                vals = np.einsum("gqa,ga->gq", grp.qmono, coeffs[grp.idx])
            ex = sample_at(lambda p: exact(p, t), grp.qnodes)
            diff = vals - ex
            tot += float(np.sum(grp.qw * diff * diff))
            worst = max(worst, float(np.abs(diff).max()))
        errs[name] = (np.sqrt(tot), worst)
    return ErrorReport(h, errs)


def observed_orders(reports: list) -> None:
    """Fill per-variable observed orders between consecutive reports."""
    for prev, cur in zip(reports[:-1], reports[1:]):
        for name in cur.errors:
            e1, e2 = prev.l2(name), cur.l2(name)
            if e1 > 0 and e2 > 0:
                cur.orders[name] = float(np.log(e1 / e2) / np.log(prev.h / cur.h))
