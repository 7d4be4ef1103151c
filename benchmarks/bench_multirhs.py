"""Benchmark: multi-RHS batched solves vs sequential single solves.

Solves batches of 1/4/8/16 right-hand sides with P-CSI+EVP on a 16x16
decomposition, once as ``nrhs`` sequential single-RHS solves and once as
one batched multi-RHS solve, and writes the timings (with batched-over-
sequential speedups) to ``BENCH_multirhs.json``.

The batched path must return **bit-identical** solutions per column --
asserted on every run -- so the speedup is pure amortization: one halo
exchange, one stencil sweep, one preconditioner apply and one
``nrhs``-word global reduction serve the whole batch, instead of paying
the per-call dispatch and latency cost once per right-hand side.

The file doubles as the perf-regression gate for CI::

    PYTHONPATH=src python benchmarks/bench_multirhs.py            # full run
    PYTHONPATH=src python benchmarks/bench_multirhs.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_multirhs.py --quick --check

``--check`` exits nonzero when the 8-RHS batched speedup falls below the
floor (3.0 full, 1.5 quick -- the quick grid is smaller and solves are
shorter, so fixed costs weigh more), or regresses below
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
from repro.kernels import resolve_kernels  # noqa: E402
from repro.operators import apply_stencil  # noqa: E402
from repro.parallel import VirtualMachine, decompose  # noqa: E402
from repro.precond.evp import evp_for_config  # noqa: E402
from repro.solvers import DistributedContext, PCSISolver  # noqa: E402

BATCH_SIZES = (1, 4, 8, 16)

#: Minimum acceptable batched-over-sequential speedup at 8 RHS.
SPEEDUP_FLOOR = {"full": 3.0, "quick": 1.5}

#: The gated batch size.
GATE_NRHS = 8


def _make_solver(config, decomp, kernels, eig_bounds, tol):
    vm = VirtualMachine(decomp, mask=config.mask)
    pre = evp_for_config(config, decomp=decomp, kernels=kernels)
    ctx = DistributedContext(config.stencil, pre, vm, kernels=kernels)
    return PCSISolver(ctx, eig_bounds=eig_bounds, tol=tol,
                      max_iterations=5000)


def bench_batch(config, decomp, kernels, eig_bounds, b_batch, tol,
                repeats):
    """Time one batch size both ways; returns the report entry."""
    nrhs = b_batch.shape[2]
    solver = _make_solver(config, decomp, kernels, eig_bounds, tol)

    def sequential():
        return [solver.solve(b_batch[..., j]) for j in range(nrhs)]

    def batched():
        return solver.solve(b_batch)

    singles = sequential()  # warm (plans, scratch, buffers)
    multi = batched()

    # The whole point: per-column bit-exactness, checked on every run.
    for j, single in enumerate(singles):
        if not np.array_equal(multi.x[..., j], single.x):
            raise AssertionError(
                f"batched column {j} differs from the single-RHS solve")
        if multi.extra["per_rhs_iterations"][j] != single.iterations:
            raise AssertionError(
                f"batched column {j} ran "
                f"{multi.extra['per_rhs_iterations'][j]} iterations, "
                f"single solve ran {single.iterations}")

    seq_best = float("inf")
    bat_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sequential()
        seq_best = min(seq_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched()
        bat_best = min(bat_best, time.perf_counter() - t0)

    return {
        "nrhs": nrhs,
        "sequential_s": seq_best,
        "batched_s": bat_best,
        "speedup": seq_best / bat_best,
        "iterations": multi.extra["per_rhs_iterations"],
    }


def run_gate(report, baseline_path, mode, regression_fraction):
    """The CI perf gate.  Returns a list of failure strings."""
    failures = []
    floor = SPEEDUP_FLOOR[mode]
    entry = next((e for e in report["batches"]
                  if e["nrhs"] == GATE_NRHS), None)
    if entry is None:
        failures.append(f"the {GATE_NRHS}-RHS batch was not benchmarked")
        return failures
    speedup = entry["speedup"]
    if speedup < floor:
        failures.append(
            f"{GATE_NRHS}-RHS batched speedup {speedup:.2f}x is below "
            f"the {floor:.1f}x floor (batched {entry['batched_s']:.4f}s, "
            f"sequential {entry['sequential_s']:.4f}s)")
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        comparable = (baseline.get("quick") == report["quick"]
                      and baseline.get("grid") == report["grid"])
        base = next((e["speedup"] for e in baseline.get("batches", [])
                     if e.get("nrhs") == GATE_NRHS), None)
        if comparable and base:
            if speedup < regression_fraction * base:
                failures.append(
                    f"{GATE_NRHS}-RHS batched speedup regressed: "
                    f"{speedup:.2f}x vs baseline {base:.2f}x "
                    f"(< {regression_fraction:.0%})")
        else:
            print(f"[bench_multirhs] baseline {baseline_path} is not "
                  f"comparable (different grid/mode); floor check only")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid, fewer repeats (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the 8-RHS speedup floor and compare "
                             "against the committed baseline; exit 1 on "
                             "regression")
    parser.add_argument("--regression-fraction", type=float, default=0.7,
                        help="minimum fraction of the baseline speedup "
                             "the current run must reach (default 0.7)")
    parser.add_argument("--kernels", default="fused",
                        help="kernel backend to benchmark (default fused)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_multirhs.json "
                             "at the repo root; BENCH_multirhs_quick.json "
                             "with --quick)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    baseline_path = root / "BENCH_multirhs.json"
    if args.out is not None:
        out_path = Path(args.out)
    else:
        out_path = root / ("BENCH_multirhs_quick.json" if args.quick
                           else "BENCH_multirhs.json")

    if args.quick:
        ny = nx = 48
        mb = 8
        repeats = 1
        tol = 1e-6
    else:
        # 2x2-point blocks on a 16x16 decomposition: the strong-scaling
        # limit the paper targets, where per-solve latency (dispatch,
        # halo exchanges, reductions) dominates and batching pays most.
        ny = nx = 32
        mb = 16
        repeats = 3
        tol = 1e-8

    kernels = resolve_kernels(args.kernels)
    config = make_test_config(ny, nx, aquaplanet=True)
    decomp = decompose(ny, nx, mb, mb, mask=config.mask)
    rng = np.random.default_rng(42)
    b_batch = np.stack(
        [apply_stencil(config.stencil,
                       rng.standard_normal(config.shape) * config.mask)
         for _ in range(max(BATCH_SIZES))], axis=-1)

    # Pin the Chebyshev interval once so every batch size runs the same
    # iteration schedule and the comparison is execution-only.
    probe = _make_solver(config, decomp, kernels, None, tol)
    probe.solve(b_batch[..., 0])
    eig_bounds = probe.eig_bounds

    report = {
        "benchmark": "multirhs",
        "grid": [ny, nx],
        "decomposition": f"{mb}x{mb}",
        "quick": bool(args.quick),
        "solver": "pcsi",
        "preconditioner": "evp",
        "kernels": kernels.name,
        "eig_bounds": list(eig_bounds),
        "tol": tol,
        "batches": [],
    }
    for nrhs in BATCH_SIZES:
        print(f"[bench_multirhs] nrhs={nrhs} ...", flush=True)
        entry = bench_batch(config, decomp, kernels, eig_bounds,
                            np.ascontiguousarray(b_batch[..., :nrhs]),
                            tol, repeats)
        report["batches"].append(entry)
        print(f"[bench_multirhs] nrhs={nrhs:2d}: sequential "
              f"{entry['sequential_s']:.3f}s, batched "
              f"{entry['batched_s']:.3f}s -> {entry['speedup']:.2f}x",
              flush=True)

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_multirhs] wrote {out_path}")

    if args.check:
        mode = "quick" if args.quick else "full"
        failures = run_gate(report, baseline_path, mode,
                            args.regression_fraction)
        if failures:
            for failure in failures:
                print(f"[bench_multirhs] GATE FAILED: {failure}",
                      file=sys.stderr)
            return 1
        print("[bench_multirhs] perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
