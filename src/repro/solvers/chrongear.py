"""The Chronopoulos-Gear solver (paper Algorithm 1).

ChronGear (D'Azevedo, Eijkhout & Romine 1999) is a rearranged
preconditioned conjugate gradient that fuses the two inner products of
classical PCG -- ``rho = r^T r'`` and ``delta = z^T r'`` -- into a
*single* ``MPI_Allreduce`` per iteration, at the cost of one extra
vector recurrence.  It is the CESM POP default solver this paper
improves upon.

Per-iteration event profile (the paper's Eq. 2, diagonal M):

* computation: 15 n^2 flop units
  (9 matvec + 4 vector updates + 2 inner-product multiplies),
* preconditioning: ``M``'s cost (1 n^2 diagonal, ~14 n^2 simplified EVP),
* boundary: one halo update,
* reduction: one fused all-reduce + 2 n^2 masking flops
  (+ one extra reduction at each convergence check).
"""

import math

import numpy as np

from repro.core.errors import BreakdownError
from repro.solvers.base import IterativeSolver, column_coeffs, ieee_div


class ChronGearSolver(IterativeSolver):
    """Preconditioned CG with fused reductions (POP's default)."""

    name = "chrongear"

    def _setup(self, b, x):
        ctx = self.context
        # r0 = b - B x0 (one matvec; skipped cheaply for the common
        # x0 = 0 case would change the event stream, so always compute).
        r = ctx.residual(b, x, phase="setup")
        s = ctx.new_vector()
        p = ctx.new_vector()
        return {
            "x": x, "r": r, "s": s, "p": p,
            "rho": np.ones(ctx.nrhs), "sigma": np.zeros(ctx.nrhs),
            "b": b,
        }

    def _iterate(self, state, k):
        ctx = self.context
        # step 4: r' = M^-1 r_{k-1}
        r_prime = ctx.precond(state["r"])
        # step 5-6: z = B r' followed by the halo update
        z = ctx.matvec(r_prime)
        # steps 7-9: fused global reduction for rho and delta
        rho, delta = ctx.dot_pair(state["r"], r_prime, z, r_prime)
        # steps 10-12: the scalar recurrences, column by column
        beta, alpha, rho_new, sigma_new = [], [], [], []
        live = False
        for rho_j, delta_j, rho_old, sigma_old in zip(
                rho.tolist(), delta.tolist(), state["rho"].tolist(),
                state["sigma"].tolist()):
            if rho_j == 0.0 and delta_j == 0.0:
                # Exact zero residual (zero RHS or an exact initial
                # guess): zero coefficients freeze the column, so the
                # next convergence check reports it converged.
                beta_j = alpha_j = 0.0
                rho_j, sigma_j = rho_old, sigma_old
            else:
                live = True
                if rho_old == 0.0 and math.isfinite(rho_j):
                    raise BreakdownError(
                        "ChronGear breakdown: rho vanished (operator or "
                        "preconditioner is not SPD on the ocean subspace)"
                    )
                beta_j = ieee_div(rho_j, rho_old)
                sigma_j = delta_j - beta_j * beta_j * sigma_old
                if sigma_j == 0.0:
                    raise BreakdownError(
                        "ChronGear breakdown: sigma vanished")
                alpha_j = rho_j / sigma_j
            beta.append(beta_j)
            alpha.append(alpha_j)
            rho_new.append(rho_j)
            sigma_new.append(sigma_j)
        if not live:
            return
        beta = column_coeffs(beta)
        alpha = column_coeffs(alpha)
        # steps 13-16: the four vector recurrences
        ctx.xpay(r_prime, beta, state["s"])   # s = r' + beta s
        ctx.xpay(z, beta, state["p"])         # p = z + beta p
        ctx.axpy(alpha, state["s"], state["x"])    # x += alpha s
        ctx.axpy(-alpha, state["p"], state["r"])   # r -= alpha p
        state["rho"] = np.array(rho_new)
        state["sigma"] = np.array(sigma_new)
