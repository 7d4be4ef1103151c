"""The distributed nine-point operator over a block decomposition.

Each simulated rank applies the *true* operator rows for its block,
reading neighbor values out of its exchanged halo -- exactly POP's
``btrop_operator`` followed by ``update_halo``.  The blocked operator is
validated against the global one: ``gather(blocked(x)) == global(x)``
bit-for-bit on every grid the test suite generates.

The nine coefficient arrays are kept stacked as ``(p, bny, bnx)``
arrays over the active blocks (zero on ragged padding), so
:meth:`BlockedOperator.apply` runs the whole multiply-accumulate
sequence as nine vectorized numpy calls over the stack -- every point
sees the same operation sequence, in the same order, as the global
apply.
"""

from repro.core.errors import SolverError
from repro.kernels import resolve_kernels

#: Coefficient application order shared by the stacked path and
#: :func:`~repro.operators.stencil_op.apply_stencil`; keeping it fixed
#: is what makes the blocked and global applies bit-identical.
_COEFF_ORDER = ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")


class BlockedOperator:
    """Stacked stencil application bound to a decomposition.

    Parameters
    ----------
    coeffs:
        Global :class:`~repro.grid.stencil.StencilCoeffs`.
    decomp:
        The block :class:`~repro.parallel.decomposition.Decomposition`.
    kernels:
        Kernel backend executing the multiply-accumulate passes (name,
        instance, or ``None`` for the ``$REPRO_KERNELS``/auto default);
        see :mod:`repro.kernels`.
    """

    def __init__(self, coeffs, decomp, kernels=None):
        if coeffs.shape != (decomp.ny, decomp.nx):
            raise SolverError(
                f"stencil shape {coeffs.shape} does not match decomposition "
                f"grid ({decomp.ny}, {decomp.nx})"
            )
        self.coeffs = coeffs
        self.decomp = decomp
        self.kernels = resolve_kernels(kernels)
        self._stacked_coeffs = {
            name: decomp.stack_interiors(getattr(coeffs, name))
            for name in _COEFF_ORDER
        }

    def apply(self, x_field, out_field):
        """``out = A @ x`` over the whole stack in nine MAC passes.

        Halos of ``x_field`` must be current.  Writes the interior
        slots of ``out_field`` (its halos are left stale; exchange
        afterwards if the next operation reads them).
        """
        h = self.decomp.halo_width
        bny, bnx = self.decomp.max_block_shape()
        self.kernels.stencil_apply_stacked(
            self._stacked_coeffs, x_field.stack, h, bny, bnx,
            out_field.interior_stack())
        return out_field
