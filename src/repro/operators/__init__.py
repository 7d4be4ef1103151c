"""Linear-operator machinery for the nine-point barotropic stencil.

* :mod:`repro.operators.stencil_op` -- vectorized global application and
  the flop-count contract used by the instrumentation,
* :mod:`repro.operators.blocked` -- the distributed operator over a
  block decomposition (reads halos, writes interiors),
* :mod:`repro.operators.matrix` -- ``scipy.sparse`` assembly, ocean
  submatrix extraction, and spectrum estimation for validation.
"""

from repro.operators.stencil_op import (
    MATVEC_FLOPS_PER_POINT,
    apply_stencil,
    residual,
)
from repro.operators.blocked import BlockedOperator
from repro.operators.matrix import (
    to_sparse,
    ocean_submatrix,
    extreme_eigenvalues,
    condition_number,
)

__all__ = [
    "MATVEC_FLOPS_PER_POINT",
    "apply_stencil",
    "residual",
    "BlockedOperator",
    "to_sparse",
    "ocean_submatrix",
    "extreme_eigenvalues",
    "condition_number",
]
