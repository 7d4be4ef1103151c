"""Benchmark: communication-avoiding CG vs the one-reduction solvers.

Solves the same right-hand side with ChronGear, PipeCG and CA-PCG at
``s`` in {2, 4, 8} (plus a plain-PCG reference for the parity check) on
the batched virtual-machine engine, and writes per-solver wall times,
the measured communication ledger (global reductions and words from the
event stream) and modeled all-reduce seconds at scale to
``BENCH_capcg.json``.

Three properties are asserted on every run:

* **parity** -- CA-PCG is PCG over a different basis, so its solution
  must match the PCG reference to the solve tolerance and its iteration
  count must stay within 10% of PCG's;
* **reduction budget** -- the measured loop ledger must show at most
  ``ceil(iters / s)`` Gram reductions plus the periodic convergence
  checks (the whole point of the s-step formulation);
* **ordering** -- CA-PCG's reduction count and modeled all-reduce
  seconds at >= 1000 modeled ranks must fall strictly below both
  ChronGear's and PipeCG's.

The file doubles as the perf-regression gate for CI::

    PYTHONPATH=src python benchmarks/bench_capcg.py            # full run
    PYTHONPATH=src python benchmarks/bench_capcg.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_capcg.py --quick --check

``--check`` enforces the three assertions above and additionally fails
when the ChronGear-over-CA-PCG reduction ratio at ``s = 4`` regresses
below ``--regression-fraction`` (default 0.7) of the committed
baseline's ratio when a comparable baseline (same grid/quick flag)
exists.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.grid import test_config as make_test_config  # noqa: E402
from repro.kernels import resolve_kernels  # noqa: E402
from repro.operators import apply_stencil  # noqa: E402
from repro.parallel import VirtualMachine, decompose  # noqa: E402
from repro.perfmodel import YELLOWSTONE, event_totals  # noqa: E402
from repro.perfmodel.timing import allreduce_seconds  # noqa: E402
from repro.precond.evp import evp_for_config  # noqa: E402
from repro.solvers import DistributedContext, make_solver  # noqa: E402

SSTEPS = (2, 4, 8)

#: Modeled rank counts the at-scale ordering is checked at.
MODEL_RANKS = (1000, 4220, 16875)

#: The gated s value for the baseline-regression comparison.
GATE_SSTEP = 4


def _make_context(config, decomp, kernels):
    vm = VirtualMachine(decomp, mask=config.mask)
    pre = evp_for_config(config, decomp=decomp, kernels=kernels)
    return DistributedContext(config.stencil, pre, vm, kernels=kernels)


def bench_solver(config, decomp, kernels, name, tol, repeats, **kwargs):
    """Time one solver; returns (report entry, SolveResult)."""
    def fresh():
        return make_solver(name, _make_context(config, decomp, kernels),
                           tol=tol, max_iterations=5000, **kwargs)

    result = fresh().solve(apply_rhs(config))  # warm + correctness run
    best = float("inf")
    for _ in range(repeats):
        solver = fresh()
        b = apply_rhs(config)
        t0 = time.perf_counter()
        solver.solve(b)
        best = min(best, time.perf_counter() - t0)

    loop = event_totals(result.events)
    setup = event_totals(result.setup_events)
    entry = {
        "solver": name,
        **({"sstep": kwargs["sstep"]} if "sstep" in kwargs else {}),
        "iterations": result.iterations,
        "wall_s": best,
        "loop_reductions": loop.allreduces,
        "loop_reduction_words": loop.allreduce_words,
        "setup_reductions": setup.allreduces,
        "reductions_per_iteration": (loop.allreduces / result.iterations
                                     if result.iterations else 0.0),
        "modeled_allreduce_s": {
            str(p): allreduce_seconds(result.events, YELLOWSTONE, p)
            for p in MODEL_RANKS},
    }
    return entry, result


def apply_rhs(config, seed=2015):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


def check_parity(entry, result, reference, tol):
    """CA-PCG must reproduce the PCG reference solution and schedule."""
    scale = float(np.linalg.norm(reference.x))
    diff = float(np.linalg.norm(result.x - reference.x))
    rel = diff / scale if scale else diff
    if rel > 100.0 * tol:
        raise AssertionError(
            f"capcg s={entry['sstep']} solution diverges from PCG: "
            f"relative difference {rel:.2e}")
    if abs(result.iterations - reference.iterations) > \
            0.1 * reference.iterations:
        raise AssertionError(
            f"capcg s={entry['sstep']} took {result.iterations} "
            f"iterations, PCG took {reference.iterations} (> 10% apart)")
    entry["pcg_relative_difference"] = rel


def check_budget(entry, check_freq=10):
    """The measured ledger must respect the 1/s reduction amortization."""
    iters = entry["iterations"]
    s = entry["sstep"]
    budget = math.ceil(iters / s) + math.ceil(iters / check_freq) + 1
    if entry["loop_reductions"] > budget:
        raise AssertionError(
            f"capcg s={s} issued {entry['loop_reductions']} loop "
            f"reductions for {iters} iterations; budget is {budget} "
            f"(ceil(iters/s) + convergence checks)")
    entry["reduction_budget"] = budget


def run_gate(report, baseline_path, regression_fraction):
    """The CI perf gate.  Returns a list of failure strings."""
    failures = []
    by_name = {e.get("sstep", e["solver"]): e for e in report["solvers"]}
    chrongear = by_name["chrongear"]
    pipecg = by_name["pipecg"]
    for s in SSTEPS:
        entry = by_name[s]
        for rival in (chrongear, pipecg):
            if entry["loop_reductions"] >= rival["loop_reductions"]:
                failures.append(
                    f"capcg s={s} loop reductions "
                    f"({entry['loop_reductions']}) not below "
                    f"{rival['solver']} ({rival['loop_reductions']})")
            for p in MODEL_RANKS:
                ours = entry["modeled_allreduce_s"][str(p)]
                theirs = rival["modeled_allreduce_s"][str(p)]
                if ours >= theirs:
                    failures.append(
                        f"capcg s={s} modeled all-reduce seconds at "
                        f"{p} ranks ({ours:.3e}) not below "
                        f"{rival['solver']} ({theirs:.3e})")
    ratio = (chrongear["loop_reductions"]
             / by_name[GATE_SSTEP]["loop_reductions"])
    report["reduction_ratio"] = ratio
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        comparable = (baseline.get("quick") == report["quick"]
                      and baseline.get("grid") == report["grid"])
        base = baseline.get("reduction_ratio")
        if comparable and base:
            if ratio < regression_fraction * base:
                failures.append(
                    f"s={GATE_SSTEP} reduction ratio regressed: "
                    f"{ratio:.2f}x vs baseline {base:.2f}x "
                    f"(< {regression_fraction:.0%})")
        else:
            print(f"[bench_capcg] baseline {baseline_path} is not "
                  f"comparable (different grid/mode); ordering check only")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small grid, fewer repeats (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the reduction-ordering gate and "
                             "compare against the committed baseline; "
                             "exit 1 on regression")
    parser.add_argument("--regression-fraction", type=float, default=0.7,
                        help="minimum fraction of the baseline reduction "
                             "ratio the current run must reach "
                             "(default 0.7)")
    parser.add_argument("--kernels", default="fused",
                        help="kernel backend to benchmark (default fused)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_capcg.json "
                             "at the repo root; BENCH_capcg_quick.json "
                             "with --quick)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    baseline_path = root / "BENCH_capcg.json"
    if args.out is not None:
        out_path = Path(args.out)
    else:
        out_path = root / ("BENCH_capcg_quick.json" if args.quick
                           else "BENCH_capcg.json")

    if args.quick:
        ny = nx = 48
        mb = 4
        repeats = 1
        tol = 1e-10
    else:
        ny, nx = 96, 128
        mb = 8
        repeats = 3
        tol = 1e-13

    kernels = resolve_kernels(args.kernels)
    config = make_test_config(ny, nx, aquaplanet=True)
    decomp = decompose(ny, nx, mb, mb, mask=config.mask)

    # Pin the Chebyshev interval once (from a Lanczos probe) so every
    # CA-PCG run prices the same basis and the sweep is deterministic.
    probe = make_solver("capcg", _make_context(config, decomp, kernels),
                        tol=tol, max_iterations=5000, sstep=2)
    probe.solve(apply_rhs(config))
    eig_bounds = tuple(probe.eig_bounds)

    report = {
        "benchmark": "capcg",
        "grid": [ny, nx],
        "decomposition": f"{mb}x{mb}",
        "quick": bool(args.quick),
        "preconditioner": "evp",
        "kernels": kernels.name,
        "eig_bounds": list(eig_bounds),
        "tol": tol,
        "machine": YELLOWSTONE.name,
        "model_ranks": list(MODEL_RANKS),
        "solvers": [],
    }

    print("[bench_capcg] pcg (parity reference) ...", flush=True)
    _, reference = bench_solver(config, decomp, kernels, "pcg", tol, 0)
    for name, kwargs in (("chrongear", {}), ("pipecg", {})):
        print(f"[bench_capcg] {name} ...", flush=True)
        entry, _ = bench_solver(config, decomp, kernels, name, tol,
                                repeats, **kwargs)
        report["solvers"].append(entry)
    for s in SSTEPS:
        print(f"[bench_capcg] capcg s={s} ...", flush=True)
        entry, result = bench_solver(config, decomp, kernels, "capcg",
                                     tol, repeats, sstep=s,
                                     eig_bounds=eig_bounds)
        check_parity(entry, result, reference, tol)
        check_budget(entry)
        report["solvers"].append(entry)
        print(f"[bench_capcg] capcg s={s}: {entry['iterations']} iters, "
              f"{entry['loop_reductions']} loop reductions "
              f"(budget {entry['reduction_budget']}), "
              f"|dx|/|x| vs PCG {entry['pcg_relative_difference']:.1e}",
              flush=True)

    failures = run_gate(report, baseline_path, args.regression_fraction)

    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_capcg] wrote {out_path}")

    if args.check:
        if failures:
            for failure in failures:
                print(f"[bench_capcg] GATE FAILED: {failure}",
                      file=sys.stderr)
            return 1
        print("[bench_capcg] perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
