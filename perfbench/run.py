"""Benchmark of the barotropic solve stack, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload minipop_landelim --seed 1 \\
        --seconds 20 --trace 0 --rate-rps 20 --latency-limit-ms 250

Workloads (see ``solver_workloads`` and ``service_workloads``):

``minipop_landelim``  MiniPOP steps, land-eliminated 8x8 lattice, P-CSI+EVP
``stacked_batch8``    8-RHS ChronGear+EVP calls on a stacked 16x16 lattice
``protected_resume``  P-CSI+EVP under replication+ABFT+checkpoints, resumed
``service_openloop``  open loop against ``repro serve`` at ``--rate-rps``

Every workload reports the same end-to-end metrics: ``setup_s`` (median
cold set-up), ``op_s_p50`` (median wall per operation: a model step, an
8-RHS solve call, a protected solve plus its resume, or a request's
latency from its due time), ``iterations`` (mean per right-hand side),
``peak_rss_mb``
(of the process that solves; for the solver workloads this process also
holds the oracle's factorization, a constant per workload) and
``ok_frac`` (share of operations that passed every check).  ``--trace 1`` reports the per-layer metrics of
:data:`LAYER_METRICS` instead and writes a Chrome trace-event file to
``.perfbench/``.

The last line of standard output is the result object; the line before
it holds details: sample counts, raw samples, throughput (right-hand
sides per second; for the service, responses within the latency limit
per second), latency percentiles, the run environment and the oracle's
worst residual and error.  The exit code is 0 when every
output was correct and 1 otherwise; 2 when the program under test
cannot be imported.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SOLVER_WORKLOADS = ("minipop_landelim", "stacked_batch8", "protected_resume")
SERVICE_WORKLOADS = ("service_openloop",)

#: End-to-end metrics: name -> unit (every workload reports all).
E2E_METRICS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

#: Per-layer metrics: name -> unit.  "/op" normalizes by the workload's
#: operation.  A layer a workload does not exercise reports 0.
LAYER_METRICS = {
    "grid.build_s": "s",
    "precond.build_s": "s",
    "precond.apply_s": "s/op",
    "precond.apply_calls": "1/op",
    "lanczos.s": "s",
    "lanczos.steps": "count",
    "loop.self_s": "s/op",
    "loop.wall_s": "s/op",
    "ctx.matvec_s": "s/op",
    "ctx.matvec_calls": "1/op",
    "ctx.update_s": "s/op",
    "ctx.update_calls": "1/op",
    "ctx.precond_s": "s/op",
    "ctx.reduce_s": "s/op",
    "vm.stacked": "flag",
    "vm.active_blocks": "count",
    "vm.exchange_s": "s/op",
    "vm.exchange_calls": "1/op",
    "vm.reduce_s": "s/op",
    "vm.reduce_calls": "1/op",
    "ledger.halo_exchanges": "1/op",
    "ledger.halo_words": "words/op",
    "ledger.allreduces": "1/op",
    "ledger.allreduce_words": "words/op",
    "ledger.flops": "flop/op",
    "kernels.bytes_per_matvec": "B",
    "kernels.flops_per_byte": "flop/B",
    "kernels.bytes_per_precond_apply": "B",
    "perfmodel.modeled_loop_s.yellowstone": "s/op",
    "resilience.s": "s/op",
    "resilience.replications": "1/op",
    "resilience.abft_checks": "1/op",
    "checkpoint.write_s": "s/op",
    "checkpoint.writes": "1/op",
    "checkpoint.bytes": "B/op",
    "checkpoint.read_s": "s/op",
    "resume.s": "s",
    "service.queue_wait_ms_p50": "ms",
    "service.batch_size_mean": "count",
    "service.execute_ms_p50": "ms",
    "service.encode_ms_p50": "ms",
    "service.http_ms_p50": "ms",
    "service.dedupe_ratio": "frac",
    "cache.hit_ratio": "frac",
    "cache.stores": "count",
    "cache.bytes_written": "B",
    "loadgen.goodput_rps": "1/s",
    "loadgen.lag_ms_max": "ms",
    "loadgen.sent": "count",
    "loadgen.completed": "count",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=SOLVER_WORKLOADS + SERVICE_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate-rps", type=float, required=True,
                        help="request rate of service_openloop")
    parser.add_argument("--latency-limit-ms", type=float, required=True,
                        help="a response slower than this misses goodput")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (not comparable)")
    return parser.parse_args(argv)


def run(args):
    """Run one workload; returns ``(result object, details)``."""
    from tracing import Tracer, instrument

    workdir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Keep the program's default artifact cache inside the run directory.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache-env")
    tracer = Tracer()
    if args.trace:
        instrument(tracer)
    try:
        if args.workload in SOLVER_WORKLOADS:
            import solver_workloads

            out = solver_workloads.run(
                args.workload, args.seed, args.seconds, bool(args.trace),
                tracer, workdir, tiny=args.tiny)
        else:
            import service_workloads

            out = service_workloads.run(
                args.seed, args.seconds, bool(args.trace), tracer, workdir,
                ROOT, args.rate_rps, args.latency_limit_ms)
    finally:
        tracer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    details = dict(out["details"], workload=args.workload, seed=args.seed)
    if args.trace:
        path = os.path.join(ROOT, ".perfbench",
                            f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome(path)
        details["trace_file"] = os.path.relpath(path, ROOT)
        values, units = out["layers"], LAYER_METRICS
    else:
        values, units = out["e2e"], E2E_METRICS
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    result = {
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    return result, details


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as err:
        print(f"perfbench: the program under test is missing: {err}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro imported from {repro.__file__}, not "
              f"from this checkout", file=sys.stderr)
        return 2
    result, details = run(args)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
