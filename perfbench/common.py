"""Shared helpers: statistics, memory, run environment, computed sizes."""

import os
import resource
import statistics
import sys

import numpy as np


#: Cold set-ups per run: at least this many ...
SETUP_MIN_REPS = 3
#: ... and more, up to SETUP_MAX_REPS, while they took less than this.
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPS = 10


def another_setup(times):
    """Whether to run one more cold set-up after those timed so far
    (cheap set-ups repeat more often, so their median steadies)."""
    return len(times) < SETUP_MIN_REPS or (
        len(times) < SETUP_MAX_REPS and sum(times) < SETUP_BUDGET_S)


def median(values):
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q):
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb():
    """Peak resident set size of this process in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid):
    """Peak resident set size (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def environment(**extra):
    """The run environment every result line records."""
    import numpy
    import scipy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }
    env.update(extra)
    return env


#: Attributes holding shared grid data rather than an operator's own.
_SHARED_ATTRS = frozenset({"stencil", "embedded_stencil", "decomp",
                           "kernels", "ledger", "metrics", "topo"})


def array_bytes(obj, _seen=None, _depth=0):
    """Bytes of every numpy array ``obj`` owns (a computed size).

    Walks attributes, lists, tuples and dicts a few levels deep, skips
    the shared grid objects in :data:`_SHARED_ATTRS`, and counts each
    array once.
    """
    seen = _seen if _seen is not None else set()
    if id(obj) in seen or _depth > 4:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) if obj.base is None else 0
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__") and \
            type(obj).__module__.startswith("repro."):
        items = [v for k, v in vars(obj).items()
                 if k.lstrip("_") not in _SHARED_ATTRS]
    else:
        return 0
    return sum(array_bytes(v, seen, _depth + 1) for v in items)
