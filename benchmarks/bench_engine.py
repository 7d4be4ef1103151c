"""Benchmark: land elimination on the stacked engine.

The paper's layout eliminates all-land blocks (section 5.2), and land
elimination is the default.  This benchmark times P-CSI + block-EVP on
``pop_1deg`` with the land-eliminated lattice and with
``eliminate_land=False`` on the virtual machine's one stacked engine,
and gates that the default configuration is not the slow one: the
land-eliminated solve must take at most ``GATE_RATIO`` times the
no-elimination solve.  Halo exchange and matvec times are recorded
beside the solve as the per-layer numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine.py --quick --check

The full run (``pop_1deg`` at scale 0.5, 8x8 and 16x16 lattices) writes
``BENCH_engine.json`` at the repo root; ``--quick`` (scale 0.25)
writes ``BENCH_engine_quick.json``.  ``--check`` exits non-zero when a
solve fails to converge, the two layouts disagree, or the gate fails.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cache import ArtifactCache  # noqa: E402
from repro.grid import pop_1deg  # noqa: E402
from repro.operators import apply_stencil  # noqa: E402
from repro.parallel import VirtualMachine, decompose  # noqa: E402
from repro.precond.evp import evp_for_config  # noqa: E402
from repro.solvers import DistributedContext, PCSISolver  # noqa: E402

#: Land-eliminated solve time may be at most this multiple of the
#: no-elimination solve time on the same lattice.
GATE_RATIO = 1.5

LAYOUTS = (("land_eliminated", True), ("no_elimination", False))


def _time_op(fn, repeats, warmup=1):
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_layout(config, mb, eliminate_land, b_global, eig_bounds,
                 repeats, tol):
    decomp = decompose(config.ny, config.nx, mb, mb, mask=config.mask,
                       eliminate_land=eliminate_land)
    vm = VirtualMachine(decomp, mask=config.mask)
    ctx = DistributedContext(config.stencil,
                             evp_for_config(config, decomp=decomp), vm)
    x = vm.scatter(b_global)
    out = vm.zeros()
    solver = PCSISolver(ctx, eig_bounds=eig_bounds, tol=tol,
                        max_iterations=5000, raise_on_failure=False)
    holder = {}

    def solve():
        holder["result"] = solver.solve(b_global)

    entry = {
        "ranks": decomp.num_active,
        "blocks": decomp.num_blocks,
        "exchange_s": _time_op(lambda: vm.exchange(x), repeats),
        "matvec_s": _time_op(lambda: ctx.matvec(x, out=out), repeats),
        "pcsi_solve_s": _time_op(solve, repeats),
    }
    result = holder["result"]
    entry["pcsi_iterations"] = result.iterations
    entry["converged"] = bool(result.converged)
    return entry, np.asarray(result.x)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when the gate fails")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_engine.json "
                             "at the repo root; BENCH_engine_quick.json "
                             "with --quick)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if args.out is not None:
        out_path = Path(args.out)
    else:
        name = "BENCH_engine_quick.json" if args.quick else "BENCH_engine.json"
        out_path = root / name

    scale = 0.25 if args.quick else 0.5
    lattices, repeats, tol = (8, 16), 3, 1e-10

    config = pop_1deg(scale=scale)
    rng = np.random.default_rng(42)
    b_global = apply_stencil(config.stencil,
                             rng.standard_normal(config.shape) * config.mask)

    # Pin the Chebyshev interval once so every timed solve runs the same
    # schedule and the comparison is layout-only.
    probe_decomp = decompose(config.ny, config.nx, lattices[0],
                             lattices[0], mask=config.mask)
    probe = PCSISolver(
        DistributedContext(config.stencil,
                           evp_for_config(config, decomp=probe_decomp),
                           VirtualMachine(probe_decomp, mask=config.mask)),
        tol=tol, max_iterations=5000,
        bounds_cache=ArtifactCache(cache_dir=None))
    probe.solve(b_global)
    eig_bounds = probe.eig_bounds

    report = {
        "benchmark": "engine",
        "grid": f"pop_1deg@{scale}",
        "shape": list(config.shape),
        "quick": bool(args.quick),
        "solver": "pcsi",
        "preconditioner": "evp",
        "eig_bounds": list(eig_bounds),
        "tol": tol,
        "gate_ratio": GATE_RATIO,
        "hardware": {"cpus": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version(),
                     "numpy": np.__version__},
        "lattices": {},
    }
    failures = []
    for mb in lattices:
        label = f"{mb}x{mb}"
        entry = {}
        solutions = {}
        for name, eliminate in LAYOUTS:
            entry[name], solutions[name] = bench_layout(
                config, mb, eliminate, b_global, eig_bounds, repeats, tol)
            if not entry[name]["converged"]:
                failures.append(f"{label} {name}: solve did not converge")
        scale_x = np.abs(solutions["no_elimination"]).max()
        drift = np.abs(solutions["land_eliminated"]
                       - solutions["no_elimination"]).max()
        if drift > 1e-8 * scale_x:
            failures.append(f"{label}: layouts disagree by {drift:.3e}")
        ratio = (entry["land_eliminated"]["pcsi_solve_s"]
                 / entry["no_elimination"]["pcsi_solve_s"])
        entry["ratio_land_eliminated_vs_no_elimination"] = ratio
        entry["gate_ok"] = ratio <= GATE_RATIO
        if not entry["gate_ok"]:
            failures.append(f"{label}: land-eliminated solve is {ratio:.2f}x "
                            f"the no-elimination solve (gate "
                            f"{GATE_RATIO}x)")
        report["lattices"][label] = entry
        print(f"[bench_engine] {label}: land-eliminated "
              f"{entry['land_eliminated']['ranks']}/"
              f"{entry['land_eliminated']['blocks']} ranks "
              f"{entry['land_eliminated']['pcsi_solve_s']:.3f}s vs "
              f"no elimination {entry['no_elimination']['pcsi_solve_s']:.3f}s "
              f"({ratio:.2f}x, gate {GATE_RATIO}x)", flush=True)

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_engine] wrote {out_path}")
    if failures:
        for failure in failures:
            print(f"[bench_engine] FAIL {failure}", file=sys.stderr)
        if args.check:
            sys.exit(1)
    return report


if __name__ == "__main__":
    main()
