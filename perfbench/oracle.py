"""Independent correctness oracle: a scipy.sparse direct solve.

The operator is assembled straight from the stencil coefficients
(``operators.matrix.ocean_submatrix``) and factorized once with SuperLU,
so the check shares no code with the iterative solvers, their contexts,
preconditioners or the virtual machine.  A solution passes when its
*true* relative residual ``||b - A x|| / ||b||`` on ocean points is
within :data:`RESIDUAL_FACTOR` times the solve tolerance, it is finite,
and it agrees with the direct solution to :data:`ERROR_LIMIT`.
"""

import numpy as np
from scipy.sparse.linalg import splu

#: The true residual may exceed the requested tolerance by this factor.
#: The solvers test their recurrence residual, which drifts from the
#: true one by rounding; at tol 1e-13 the drift stays well inside 10x.
RESIDUAL_FACTOR = 10.0

#: Largest accepted relative 2-norm error against the direct solution.
#: Loose on purpose: it catches a wrong answer, while the residual test
#: carries the tolerance.
ERROR_LIMIT = 1.0e-6


class DirectOracle:
    """Check solutions of ``A x = b`` for one grid."""

    def __init__(self, stencil):
        from repro.operators.matrix import ocean_submatrix

        self.matrix, self.ocean = ocean_submatrix(stencil)
        self._lu = None
        self.worst_residual = 0.0
        self.worst_error = 0.0

    def factor(self):
        """The SuperLU factorization (built on first use)."""
        if self._lu is None:
            self._lu = splu(self.matrix.tocsc())
        return self._lu

    def check(self, b, x, tol):
        """Whether ``x`` solves ``A x = b`` to ``tol``; records extremes.

        ``b`` and ``x`` are ``(ny, nx)`` fields.
        """
        bo = np.asarray(b, dtype=np.float64).ravel()[self.ocean]
        xo = np.asarray(x, dtype=np.float64).ravel()[self.ocean]
        if not np.all(np.isfinite(xo)):
            return False
        b_norm = np.linalg.norm(bo)
        if b_norm == 0.0:
            return not np.any(xo)
        residual = np.linalg.norm(bo - self.matrix @ xo) / b_norm
        direct = self.factor().solve(bo)
        error = np.linalg.norm(xo - direct) / np.linalg.norm(direct)
        self.worst_residual = max(self.worst_residual, residual)
        self.worst_error = max(self.worst_error, error)
        return bool(residual <= RESIDUAL_FACTOR * tol
                    and error <= ERROR_LIMIT)
