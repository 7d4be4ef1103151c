"""Pluggable kernel backends for the solver hot paths.

The per-iteration cost of the reproduction concentrates in two places:
the nine-point stencil matvec (the paper's ``9 n^2`` computation term)
and the EVP preconditioner apply (the ``14 n^2`` marching solve).  This
package makes their *implementation* selectable while guaranteeing the
*arithmetic* stays fixed:

``numpy``
    The vectorized reference -- readable, allocation-light, the oracle
    every other backend is validated against.
``fused``
    Same IEEE operation sequence, executed through precompiled
    flat-index programs with reused scratch (see
    :mod:`repro.kernels.fused`).  Bit-identical to ``numpy`` and the
    default under ``auto``.

Selection
---------
Every entry point that touches a hot path accepts ``kernels=`` -- a
backend name, a :class:`~repro.kernels.base.KernelBackend` instance, or
``None``.  ``None`` consults the ``REPRO_KERNELS`` environment variable
and then defaults to ``"auto"``, which picks the fastest backend
(fused > numpy).  Requesting an unknown name raises
:class:`~repro.core.errors.KernelError` listing the choices.

The EVP influence matrices are deliberately *not* backend work: they
are built once by the engine's deterministic reference sweep, so cached
artifacts (and the ring correction derived from them) are identical no
matter which backend later consumes them.
"""

import os

from repro.core.errors import KernelError
from repro.kernels.base import KernelBackend
from repro.kernels.fused import FusedKernels
from repro.kernels.numpy_ref import NumpyKernels

__all__ = [
    "KernelBackend",
    "NumpyKernels",
    "FusedKernels",
    "KernelError",
    "KERNEL_CHOICES",
    "available_backends",
    "get_backend",
    "resolve_kernels",
]

#: Environment variable consulted when no explicit backend is given.
KERNELS_ENV = "REPRO_KERNELS"

#: ``auto`` preference order: fastest first.
AUTO_ORDER = ("fused", "numpy")

#: Singleton backend instances (scratch caches live on them, so a
#: process shares one instance per backend).
_BACKENDS = {
    "numpy": NumpyKernels(),
    "fused": FusedKernels(),
}

#: Valid ``--kernels`` values, in CLI display order.
KERNEL_CHOICES = ("auto",) + tuple(_BACKENDS)


def available_backends():
    """Names of the registered backends, in auto order."""
    return AUTO_ORDER


def get_backend(name):
    """The backend registered under ``name`` (exact, no resolution).

    Raises :class:`KernelError` for unknown names.
    """
    backend = _BACKENDS.get(name)
    if backend is None:
        raise KernelError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{', '.join(KERNEL_CHOICES)}"
        )
    return backend


def resolve_kernels(kernels=None):
    """Resolve a ``kernels=`` argument to a backend instance.

    ``None`` -> ``$REPRO_KERNELS`` or ``"auto"``; ``"auto"`` -> the
    first backend in :data:`AUTO_ORDER`; a name -> that backend
    (raising if unknown); a backend instance -> itself.
    """
    if isinstance(kernels, KernelBackend):
        return kernels
    name = kernels
    if name is None:
        name = os.environ.get(KERNELS_ENV) or "auto"
    name = str(name).lower()
    if name == "auto":
        name = AUTO_ORDER[0]
    return get_backend(name)
