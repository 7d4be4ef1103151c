"""The three in-process solver workloads.

``minipop_landelim``
    MiniPOP time steps on ``pop_1deg``@0.5 over an 8x8 lattice with
    land-block elimination (the default layout), P-CSI + block-EVP at
    tol 1e-13, each solve warm-started from the previous SSH.
``stacked_batch8``
    A 192x192 aquaplanet on a 16x16 lattice (no land, so the stacked
    engine always runs), ChronGear + EVP at tol 1e-13, 8 RHS per call.
``protected_resume``
    The stacked_batch8 grid with P-CSI + EVP and one RHS, solved under
    buddy replication + ABFT with a checkpoint every 10 iterations, then
    resumed from a mid-solve checkpoint; the resumed answer must be
    bit-identical.

Set-up is repeated (see ``common.another_setup``), each time cold
against a fresh artifact-cache directory; the operations then run until
the time budget is spent.  Every solution is checked against the
direct-solve oracle right after its operation, outside the timing.
"""

import gc
import hashlib
import os
import shutil
import time

import numpy as np

from common import (another_setup, array_bytes, environment, median,
                    peak_rss_mb)
from oracle import DirectOracle

#: Operations per run at the least (a traced run needs one untraced
#: and one traced operation to estimate the tracing overhead).
MIN_OPS = 2

TOL = 1.0e-13
MAX_ITERATIONS = 60000

#: The in-solve protection under test in ``protected_resume``.
RESILIENCE = {"replicate_every": 10, "abft": True}
CHECKPOINT_EVERY = 10

#: Event-ledger totals reported per operation.
LEDGER_KEYS = ("halo_exchanges", "halo_words", "allreduces",
               "allreduce_words", "flops")

#: Grid, lattice and solver per workload; ``tiny`` sizes serve the
#: harness self-test.
SPECS = {
    "minipop_landelim": {
        "grid": ("pop_1deg", 0.5), "lattice": 8, "solver": "pcsi",
        "tiny": {"grid": ("pop_1deg", 0.1), "lattice": 4},
    },
    "stacked_batch8": {
        "grid": ("aquaplanet", 192), "lattice": 16, "solver": "chrongear",
        "nrhs": 8,
        "tiny": {"grid": ("aquaplanet", 32), "lattice": 4},
    },
    "protected_resume": {
        "grid": ("aquaplanet", 192), "lattice": 16, "solver": "pcsi",
        "tiny": {"grid": ("aquaplanet", 32), "lattice": 4},
    },
}


def _make_grid(grid):
    from repro.grid import pop_1deg, test_config

    kind, size = grid
    if kind == "pop_1deg":
        return pop_1deg(scale=size)
    return test_config(size, size, aquaplanet=True)


class Stack:
    """One cold set-up: grid, decomposition, VM, EVP, solver, bounds."""

    def __init__(self, spec, cache_dir, tracer):
        from repro.core.cache import ArtifactCache
        from repro.parallel import VirtualMachine, decompose
        from repro.precond import evp
        from repro.solvers import (ChronGearSolver, DistributedContext,
                                   PCSISolver)

        t0 = time.perf_counter()
        self.cache = ArtifactCache(cache_dir=cache_dir)
        with tracer.span("grid.build"):
            self.config = cfg = _make_grid(spec["grid"])
        lattice = spec["lattice"]
        self.decomp = decompose(cfg.ny, cfg.nx, lattice, lattice,
                                mask=cfg.mask)
        self.vm = VirtualMachine(self.decomp, mask=cfg.mask)
        self.pre = evp.evp_for_config(cfg, decomp=self.decomp,
                                      cache=self.cache)
        self.ctx = DistributedContext(cfg.stencil, self.pre, self.vm)
        if spec["solver"] == "pcsi":
            self.solver = PCSISolver(self.ctx, tol=TOL,
                                     max_iterations=MAX_ITERATIONS,
                                     bounds_cache=self.cache)
            # Estimate the Chebyshev interval now, as set-up: the first
            # solve would otherwise pay for it inside the timed loop.
            self.solver._ensure_bounds()
        else:
            self.solver = ChronGearSolver(self.ctx, tol=TOL,
                                          max_iterations=MAX_ITERATIONS)
        self.seconds = time.perf_counter() - t0


class OpRecord:
    """What one timed operation produced."""

    def __init__(self):
        self.wall = 0.0
        self.solve_wall = 0.0
        self.results = []
        self.checks = []          # (b, x) pairs for the oracle
        self.iterations = []      # per RHS column
        self.failures = 0         # non-converged or not bit-identical
        self.resume_wall = None

    def settle(self, oracle, ranks):
        """Check the solutions and count the events, then drop the
        arrays, so memory does not grow with the number of operations.

        Sets ``columns``, ``failed``, ``input_sha256`` and ``counts``
        (exact event-ledger totals, modeled Yellowstone loop seconds and
        resilience counters summed over the operation's solves).
        """
        from repro.perfmodel.machines import YELLOWSTONE
        from repro.perfmodel.timing import event_totals, solve_time

        verdicts = [oracle.check(b, x, TOL) for b, x in self.checks]
        self.columns = len(verdicts)
        self.failed = max(self.failures, verdicts.count(False))
        digest = hashlib.sha256()
        for b, _ in self.checks:
            digest.update(np.ascontiguousarray(b).tobytes())
        self.input_sha256 = digest.hexdigest()
        counts = dict.fromkeys(LEDGER_KEYS + ("modeled", "replications",
                                              "abft_checks"), 0.0)
        for result in self.results:
            totals = event_totals(result.events)
            for key in LEDGER_KEYS:
                counts[key] += getattr(totals, key)
            counts["modeled"] += solve_time(result, YELLOWSTONE,
                                            ranks).total
            summary = (result.extra.get("resilience") or {}).get(
                "counters", {})
            counts["replications"] += summary.get("replications", 0)
            counts["abft_checks"] += sum(summary.get(k, 0) for k in (
                "halo_checks", "rowsum_checks", "residual_crosschecks"))
        self.counts = counts
        self.checks = self.results = None


# ----------------------------------------------------------------------
# the operations
# ----------------------------------------------------------------------
class MiniPOPSteps:
    def __init__(self, stack, rng):
        from repro.barotropic.model import MiniPOP

        self.stack = stack
        # The seed sets the wind strength and an initial temperature
        # anomaly, which feeds the barotropic forcing.
        self.model = MiniPOP(stack.config, stack.solver,
                             wind_amplitude=4.0e-9 * rng.uniform(0.8, 1.2))
        self.model.perturb_temperature(magnitude=1.0e-2,
                                       seed=int(rng.integers(2 ** 31)))

    def op(self, rng):
        rec = OpRecord()
        model, solver = self.model, self.stack.solver
        t0 = time.perf_counter()
        psi, guess = model.begin_step()
        t1 = time.perf_counter()
        result = solver.solve(psi, x0=guess)
        rec.solve_wall = time.perf_counter() - t1
        model.finish_step(result.x, result.iterations,
                          result.residual_norm, result.converged)
        rec.wall = time.perf_counter() - t0
        rec.results.append(result)
        rec.checks.append((psi, result.x))
        rec.iterations.append(result.iterations)
        rec.failures += int(not result.converged)
        return rec


class StackedBatch:
    def __init__(self, stack, rng, nrhs):
        self.stack = stack
        self.nrhs = nrhs

    def op(self, rng):
        cfg = self.stack.config
        b = rng.standard_normal(cfg.shape + (self.nrhs,)) \
            * cfg.mask[..., None]
        rec = OpRecord()
        t0 = time.perf_counter()
        result = self.stack.solver.solve(b)
        rec.wall = rec.solve_wall = time.perf_counter() - t0
        rec.results.append(result)
        for j in range(self.nrhs):
            rec.checks.append((b[..., j], result.x[..., j]))
        rec.iterations.extend(result.extra["per_rhs_iterations"])
        rec.failures += sum(not c for c in
                            result.extra["per_rhs_converged"])
        return rec


class ProtectedResume:
    def __init__(self, stack, rng, workdir):
        self.stack = stack
        self.workdir = workdir
        self.count = 0

    def op(self, rng):
        from repro.core.checkpoint import CheckpointPolicy

        cfg = self.stack.config
        solver = self.stack.solver
        b = rng.standard_normal(cfg.shape) * cfg.mask
        directory = os.path.join(self.workdir, f"ckpt-{self.count}")
        self.count += 1
        policy = CheckpointPolicy(directory, every=CHECKPOINT_EVERY,
                                  keep=0)
        rec = OpRecord()
        t0 = time.perf_counter()
        result = solver.solve(b, checkpoint=policy, resilience=RESILIENCE)
        t1 = time.perf_counter()
        middle = policy.written[len(policy.written) // 2]
        resumed = solver.solve(b, resume_from=middle,
                               resilience=RESILIENCE)
        t2 = time.perf_counter()
        shutil.rmtree(directory, ignore_errors=True)
        rec.wall = rec.solve_wall = t2 - t0
        rec.resume_wall = t2 - t1
        rec.results.extend([result, resumed])
        rec.checks.append((b, result.x))
        rec.iterations.append(result.iterations)
        identical = (np.array_equal(result.x, resumed.x)
                     and result.iterations == resumed.iterations)
        rec.failures += int(not (result.converged and identical))
        return rec


def _operation(name, spec, stack, rng, workdir):
    if name == "minipop_landelim":
        return MiniPOPSteps(stack, rng)
    if name == "stacked_batch8":
        return StackedBatch(stack, rng, spec["nrhs"])
    return ProtectedResume(stack, rng, workdir)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(name, seed, seconds, trace, tracer, workdir, tiny=False):
    """Run one solver workload; returns the result pieces (see run.py)."""
    spec = dict(SPECS[name])
    if tiny:
        spec.update(spec.pop("tiny"))
    else:
        spec.pop("tiny")
    rng = np.random.default_rng(seed)

    setups = []
    setup_layers = []
    stack = None
    while another_setup(setups):
        rep = len(setups)
        # Free the previous set-up (its objects hold reference cycles)
        # before the next one, so the peak RSS does not depend on when
        # the collector happens to run.
        stack = None
        gc.collect()
        start = len(tracer.spans)
        stack = Stack(spec, os.path.join(workdir, f"cache-{rep}"), tracer)
        setups.append(stack.seconds)
        setup_layers.append({
            name: sum(tracer.durations(name, start))
            for name in ("grid.build", "precond.build", "lanczos")})
        setup_layers[-1]["lanczos.steps"] = tracer.arg_sum(
            "lanczos", "steps", start)
    op = _operation(name, spec, stack, rng, workdir)
    # Factorized before the loop, so the oracle's memory is a constant
    # part of the peak RSS rather than a step in it.
    oracle = DirectOracle(stack.config.stencil)
    oracle.factor()

    records = []
    traced_walls, plain_walls = [], []
    loop_start = len(tracer.spans)
    t_start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        tracer.enabled = traced
        tracer.op = len(records)
        with tracer.span("op", index=len(records)):
            rec = op.op(rng)
        tracer.enabled = True
        tracer.op = None
        rec.settle(oracle, stack.decomp.num_active)
        records.append(rec)
        per_iteration = rec.wall / max(1, sum(rec.iterations))
        (traced_walls if traced else plain_walls).append(per_iteration)
        elapsed = time.perf_counter() - t_start
        if len(records) >= MIN_OPS and elapsed + rec.wall > seconds:
            break
    rss = peak_rss_mb()

    attempted = sum(r.columns for r in records)
    failed = sum(r.failed for r in records)
    walls = [r.wall for r in records]
    iterations = [i for r in records for i in r.iterations]
    out = {
        "attempted": attempted,
        "failed": failed,
        "e2e": {
            "setup_s": median(setups),
            "op_s_p50": median(walls),
            "iterations": float(np.mean(iterations)),
            "peak_rss_mb": rss,
            "ok_frac": (attempted - failed) / attempted,
        },
        "details": {
            "samples": {"setup_s": len(setups), "op_s": len(walls)},
            "rhs_per_s": attempted / sum(walls),
            "setup_s": setups,
            "op_s": walls,
            "environment": environment(
                engine=stack.vm.engine,
                active_blocks=stack.decomp.num_active,
                total_blocks=stack.decomp.num_blocks,
                kernels=stack.ctx.kernels.name,
                grid=list(stack.config.shape)),
            "oracle": {"worst_residual": oracle.worst_residual,
                       "worst_error": oracle.worst_error},
        },
    }
    out["details"]["first_input_sha256"] = records[0].input_sha256
    resumes = [r.resume_wall for r in records if r.resume_wall is not None]
    if resumes:
        out["details"]["resume_s"] = resumes
    if trace:
        out["layers"] = _layers(stack, records, tracer, loop_start,
                                setup_layers, traced_walls, plain_walls,
                                resumes)
    return out


def _layers(stack, records, tracer, loop_start, setup_layers,
            traced_walls, plain_walls, resumes):
    from repro.operators.stencil_op import MATVEC_FLOPS_PER_POINT

    layers = {}

    # Set-up layers: inclusive span time, median over the cold set-ups.
    for metric, key in (("grid.build_s", "grid.build"),
                        ("precond.build_s", "precond.build"),
                        ("lanczos.s", "lanczos"),
                        ("lanczos.steps", "lanczos.steps")):
        layers[metric] = median([t[key] for t in setup_layers])

    traced_ops = [s for s in tracer.closed(loop_start) if s.name == "op"]
    n = max(1, len(traced_ops))
    totals = tracer.totals(loop_start, roots={"op"})

    def per_op(span_name, index=0):
        return totals.get(span_name, (0.0, 0))[index] / n

    traced_recs = [records[s.args["index"]] for s in traced_ops]
    solve_spans = sum(tracer.durations("solve", loop_start))
    external = sum(r.solve_wall for r in traced_recs)
    under_solve = tracer.totals(loop_start, roots={"solve"})
    layers.update({
        "precond.apply_s": per_op("precond.apply"),
        "precond.apply_calls": per_op("precond.apply", 1),
        "loop.self_s": per_op("solve"),
        "loop.wall_s": solve_spans / n,
        "ctx.matvec_s": per_op("ctx.matvec"),
        "ctx.matvec_calls": per_op("ctx.matvec", 1),
        "ctx.update_s": per_op("ctx.update"),
        "ctx.update_calls": per_op("ctx.update", 1),
        "ctx.precond_s": per_op("ctx.precond"),
        "ctx.reduce_s": per_op("ctx.reduce"),
        "vm.stacked": float(stack.vm.engine == "batched"),
        "vm.active_blocks": float(stack.decomp.num_active),
        "vm.exchange_s": per_op("vm.exchange"),
        "vm.exchange_calls": per_op("vm.exchange", 1),
        "vm.reduce_s": per_op("vm.reduce"),
        "vm.reduce_calls": per_op("vm.reduce", 1),
        "resilience.s": per_op("resilience"),
        "checkpoint.write_s": per_op("checkpoint.write"),
        "checkpoint.writes": per_op("checkpoint.write", 1),
        "checkpoint.bytes": tracer.arg_sum("checkpoint.write", "bytes",
                                           loop_start) / n,
        "checkpoint.read_s": per_op("checkpoint.read"),
        "resume.s": median(resumes) if resumes else 0.0,
        "trace.overhead_frac": (median(traced_walls) / median(plain_walls)
                                - 1.0),
        "trace.accounted_frac": (sum(v[0] for v in under_solve.values())
                                 / external if external else 0.0),
        "trace.spans": float(len(tracer.spans)),
    })

    # Exact counts from the event ledgers and the resilience summaries
    # of every operation's results, and the modeled loop time.
    ops = len(records)

    def per_record(key):
        return sum(r.counts[key] for r in records) / ops

    for key in LEDGER_KEYS:
        layers[f"ledger.{key}"] = per_record(key)
    layers["perfmodel.modeled_loop_s.yellowstone"] = per_record("modeled")
    layers["resilience.replications"] = per_record("replications")
    layers["resilience.abft_checks"] = per_record("abft_checks")

    # Computed sizes (from array shapes, not measured traffic).
    h = stack.decomp.halo_width
    blocks = stack.decomp.active_blocks
    points = sum(b.ny * b.nx for b in blocks)
    with_halo = sum((b.ny + 2 * h) * (b.nx + 2 * h) for b in blocks)
    matvec_bytes = 8 * (with_halo + 10 * points)
    layers["kernels.bytes_per_matvec"] = float(matvec_bytes)
    layers["kernels.flops_per_byte"] = (MATVEC_FLOPS_PER_POINT * points
                                        / matvec_bytes)
    layers["kernels.bytes_per_precond_apply"] = float(
        array_bytes(stack.pre) + 16 * points)

    cache = stack.cache.counters()
    layers["cache.hit_ratio"] = float(cache["hit_ratio"])
    layers["cache.stores"] = float(cache["writes"])
    layers["cache.bytes_written"] = float(
        stack.cache.stats()["disk_bytes"])
    return layers
