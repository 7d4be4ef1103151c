"""Textbook preconditioned conjugate gradients.

The pre-ChronGear baseline: mathematically the same Krylov iteration as
ChronGear but with *two* separate global reductions per iteration
(``r^T z`` and ``p^T q``).  Kept so experiments can show the lineage
diagonal-PCG -> ChronGear (halve the reductions) -> P-CSI (eliminate
them).
"""

import math

import numpy as np

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver, column_coeffs, ieee_div


class PCGSolver(IterativeSolver):
    """Classic PCG: two reductions per iteration."""

    name = "pcg"

    def _setup(self, b, x):
        ctx = self.context
        r = ctx.residual(b, x, phase="setup")
        z = ctx.precond(r, phase="setup")
        p = ctx.copy(z)
        rho = ctx.dot(r, z, phase="setup")
        return {"x": x, "r": r, "p": p, "rho": rho, "b": b}

    def _iterate(self, state, k):
        ctx = self.context
        p = state["p"]
        q = ctx.matvec(p)
        pq = ctx.dot(p, q)                      # reduction #1
        rho = state["rho"].tolist()
        # An exactly solved column (pq = rho = 0) freezes itself
        # through zero coefficients.
        alpha, frozen = [], []
        for pq_j, rho_j in zip(pq.tolist(), rho):
            if pq_j == 0.0 and rho_j != 0.0:
                raise BreakdownError("PCG breakdown: p^T A p vanished")
            frozen.append(pq_j == 0.0)
            alpha.append(0.0 if pq_j == 0.0 else rho_j / pq_j)
        if all(frozen):
            return
        alpha = column_coeffs(alpha)
        ctx.axpy(alpha, p, state["x"])
        ctx.axpy(-alpha, q, state["r"])
        z = ctx.precond(state["r"])
        rho_new = ctx.dot(state["r"], z).tolist()   # reduction #2
        beta = []
        for j, (rho_j, new_j) in enumerate(zip(rho, rho_new)):
            if frozen[j]:
                beta.append(0.0)
                rho_new[j] = rho_j
                continue
            if rho_j == 0.0 and math.isfinite(new_j):
                raise BreakdownError("PCG breakdown: rho vanished")
            beta.append(ieee_div(new_j, rho_j))
        ctx.xpay(z, column_coeffs(beta), p)     # p = z + beta p
        state["rho"] = np.array(rho_new)
