"""Benchmark: kernel backends (numpy reference vs fused).

Times the two solver hot paths -- the nine-point stencil matvec and the
EVP preconditioner apply, the latter both on the global field and on
the virtual machine's stacked block layout -- plus the full P-CSI+EVP
solve on the virtual machine over a 16x16 decomposition, once per
kernel backend, and writes the results (with speedups over
the ``numpy`` reference) to ``BENCH_kernels.json``.

The backends must agree bit-for-bit -- asserted here on every
metric's output.

The file doubles as the perf-regression gate for CI::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full run
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick --check

``--check`` exits nonzero when the fused backend's speedup on the
stacked EVP apply -- the dispatch-bound tile marching the backend
exists for -- falls below the floor (2.0 full, 1.4 quick -- the quick
grid is smaller, so fixed costs weigh more), or regresses below
``--regression-fraction`` (default 0.7) of the committed baseline's
speedup when a comparable baseline (same grid/quick flag) exists.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.grid import test_config as make_test_config  # noqa: E402
from repro.kernels import available_backends, get_backend  # noqa: E402
from repro.operators import apply_stencil  # noqa: E402
from repro.parallel import VirtualMachine, decompose  # noqa: E402
from repro.precond.evp import evp_for_config  # noqa: E402
from repro.solvers import DistributedContext, PCSISolver  # noqa: E402

#: Minimum acceptable fused-over-numpy speedup on the stacked EVP apply
#: (the dispatch-bound tile marching the backend exists for).
SPEEDUP_FLOOR = {"full": 2.0, "quick": 1.4}

#: The metric the gate reads.
GATED = "evp_stack_s"


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


def bench_backend(name, config, decomp, b_global, eig_bounds, repeats,
                  solve_tol, solve_repeats):
    """All metrics for one backend; returns (entry, solution arrays)."""
    backend = get_backend(name)
    rng = np.random.default_rng(0)
    r_global = rng.standard_normal(config.shape) * config.mask

    entry = {"deterministic": backend.deterministic}
    outputs = {}

    # -- micro: global stencil matvec ----------------------------------
    out = np.empty_like(r_global)
    entry["matvec_s"] = _time_op(
        lambda: apply_stencil(config.stencil, r_global, out=out,
                              kernels=backend),
        repeats)
    outputs["matvec"] = apply_stencil(config.stencil, r_global,
                                      kernels=backend)

    # -- micro: EVP preconditioner apply -------------------------------
    pre = evp_for_config(config, decomp=decomp, kernels=backend)
    z = np.empty_like(r_global)
    entry["evp_apply_s"] = _time_op(
        lambda: pre.apply_global(r_global, out=z), repeats)
    outputs["evp_apply"] = pre.apply_global(r_global)

    # -- micro: EVP apply on the virtual machine's stacked layout -------
    r_stack = decomp.stack_interiors(r_global)
    z_stack = np.empty_like(r_stack)
    entry["evp_stack_s"] = _time_op(
        lambda: pre.apply_stack(r_stack, out=z_stack), repeats)
    outputs["evp_stack"] = pre.apply_stack(r_stack)

    # -- full P-CSI+EVP solve on the virtual machine --------------------
    vm = VirtualMachine(decomp, mask=config.mask)
    pre = evp_for_config(config, decomp=decomp, kernels=backend)
    ctx = DistributedContext(config.stencil, pre, vm, kernels=backend)
    solver = PCSISolver(ctx, eig_bounds=eig_bounds, tol=solve_tol,
                        max_iterations=5000)
    result = solver.solve(b_global)  # warm (plans, scratch, buffers)
    best = float("inf")
    for _ in range(solve_repeats):
        t0 = time.perf_counter()
        result = solver.solve(b_global)
        best = min(best, time.perf_counter() - t0)
    entry["pcsi_s"] = best
    entry["pcsi_iterations"] = result.iterations
    outputs["pcsi"] = result.x
    return entry, outputs


def check_outputs(reference, outputs):
    """Every backend is bit-identical to the numpy reference."""
    for key, ref in reference.items():
        if not np.array_equal(ref, outputs[key]):
            raise AssertionError(f"backend disagrees with numpy on {key}")


def run_gate(report, baseline_path, mode, regression_fraction):
    """The CI perf gate.  Returns a list of failure strings."""
    failures = []
    floor = SPEEDUP_FLOOR[mode]
    speedup = (report["backends"].get("fused", {})
               .get("speedup_vs_numpy", {}).get(GATED))
    if speedup is None:
        failures.append("fused backend was not benchmarked")
        return failures
    if speedup < floor:
        failures.append(
            f"fused stacked EVP apply speedup {speedup:.2f}x is below the "
            f"{floor:.1f}x floor")
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        comparable = (baseline.get("quick") == report["quick"]
                      and baseline.get("grid") == report["grid"])
        base = (baseline.get("backends", {}).get("fused", {})
                .get("speedup_vs_numpy", {}).get(GATED))
        if comparable and base:
            if speedup < regression_fraction * base:
                failures.append(
                    f"fused stacked EVP apply speedup regressed: "
                    f"{speedup:.2f}x vs baseline {base:.2f}x "
                    f"(< {regression_fraction:.0%})")
        else:
            print(f"[bench_kernels] baseline {baseline_path} is not "
                  f"comparable (different grid/mode); floor check only")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid, fewer repeats (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the fused speedup floor and compare "
                             "against the committed baseline; exit 1 on "
                             "regression")
    parser.add_argument("--regression-fraction", type=float, default=0.7,
                        help="minimum fraction of the baseline speedup "
                             "the current run must reach (default 0.7)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_kernels.json "
                             "at the repo root; BENCH_kernels_quick.json "
                             "with --quick)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    baseline_path = root / "BENCH_kernels.json"
    if args.out is not None:
        out_path = Path(args.out)
    else:
        out_path = root / ("BENCH_kernels_quick.json" if args.quick
                           else "BENCH_kernels.json")

    if args.quick:
        ny = nx = 48
        mb = 8
        repeats = 5
        solve_repeats = 1
        solve_tol = 1e-6
    else:
        ny = nx = 96
        mb = 16
        repeats = 20
        solve_repeats = 2
        solve_tol = 1e-8

    config = make_test_config(ny, nx, aquaplanet=True)
    decomp = decompose(ny, nx, mb, mb, mask=config.mask)
    rng = np.random.default_rng(42)
    b_global = apply_stencil(config.stencil,
                             rng.standard_normal(config.shape) * config.mask)

    # Pin the Chebyshev interval once so every backend runs the same
    # iteration schedule and the comparison is execution-only.
    probe_pre = evp_for_config(config, decomp=decomp, kernels="numpy")
    probe_vm = VirtualMachine(decomp, mask=config.mask)
    probe = PCSISolver(
        DistributedContext(config.stencil, probe_pre, probe_vm,
                           kernels="numpy"),
        tol=solve_tol, max_iterations=5000)
    probe.solve(b_global)
    eig_bounds = probe.eig_bounds

    backends = available_backends()
    # Reference first, so every other backend can be checked against it.
    order = ["numpy"] + [n for n in backends if n != "numpy"]

    report = {
        "benchmark": "kernels",
        "grid": [ny, nx],
        "decomposition": f"{mb}x{mb}",
        "quick": bool(args.quick),
        "solver": "pcsi",
        "preconditioner": "evp",
        "eig_bounds": list(eig_bounds),
        "tol": solve_tol,
        "backends": {},
    }
    reference = None
    for name in order:
        print(f"[bench_kernels] {name} ...", flush=True)
        entry, outputs = bench_backend(
            name, config, decomp, b_global, eig_bounds, repeats,
            solve_tol, solve_repeats)
        if reference is None:
            reference = outputs
        else:
            check_outputs(reference, outputs)
        report["backends"][name] = entry

    base = report["backends"]["numpy"]
    metrics = ("matvec_s", "evp_apply_s", "evp_stack_s", "pcsi_s")
    for name, entry in report["backends"].items():
        entry["speedup_vs_numpy"] = {
            key: base[key] / entry[key] for key in metrics
        }
    for name, entry in report["backends"].items():
        s = entry["speedup_vs_numpy"]
        print(f"[bench_kernels] {name:6s}: "
              f"pcsi {entry['pcsi_s']:.3f}s "
              f"({s['pcsi_s']:.2f}x), "
              f"evp stack {s['evp_stack_s']:.2f}x, "
              f"evp apply {s['evp_apply_s']:.2f}x, "
              f"matvec {s['matvec_s']:.2f}x", flush=True)

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_kernels] wrote {out_path}")

    if args.check:
        mode = "quick" if args.quick else "full"
        failures = run_gate(report, baseline_path, mode,
                            args.regression_fraction)
        if failures:
            for failure in failures:
                print(f"[bench_kernels] GATE FAILED: {failure}",
                      file=sys.stderr)
            return 1
        print("[bench_kernels] perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
