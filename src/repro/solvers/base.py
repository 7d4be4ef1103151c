"""Shared scaffolding for the iterative solvers.

Handles the pieces the paper holds fixed across solvers so comparisons
are fair (section 5.2): the convergence criterion (masked residual
2-norm vs a tolerance relative to ``|b|``), the *check frequency* (POP
checks every 10 iterations -- each check is an extra global reduction,
which is P-CSI's only reduction), and the iteration budget.

One guarded loop
----------------
Every solve runs through one loop over an ``(ny, nx, k)`` batch of
right-hand sides.  A 2-D ``b`` is the ``k = 1`` batch: it runs exactly
the arithmetic of a batch column, and only at the end is the outcome
presented as a single-RHS result -- ``x`` of shape ``(ny, nx)``, no
``multi_rhs``/``per_rhs_*`` keys in ``extra``.  All columns share each
halo exchange, stencil application, preconditioner application and
(fused, ``k``-word) global reduction; per column the arithmetic stream
is bit-identical to a solve of that column alone.

Guardrails
----------
The loop is *guarded*, per column: it refuses non-finite inputs at
entry, exits at iteration 0 for a zero right-hand side, watches every
checked residual norm for NaN/Inf and for divergence (growth past
``divergence_factor * |b|`` across consecutive checks), and stops a
column whose residual stagnates.  A finished column is frozen into the
output at the iteration where it finished and compacted out of the
loop state, so later iterations do no work for it.  A non-finite
reduction inside an iteration poisons only its own column, which the
next check reports as ``nonfinite_residual``; a
:class:`~repro.core.errors.BreakdownError` raised by the recurrence is
an SPD violation and fails every still-running column.  Every abnormal
stop produces a :class:`~repro.solvers.health.SolverDiagnosis` and a
*partial* :class:`~repro.solvers.result.SolveResult` -- iterate,
residual history, setup and loop events -- attached to the
:class:`~repro.core.errors.ConvergenceError` (or returned directly with
``raise_on_failure=False``); each diagnosis carries the last finite
checked residual and the per-phase event ledger in ``data``.

The guardrail checks reuse residual norms the solver already reduced
and local ``isfinite`` scans of data already in memory; they add no
communication or ledger events, so modeled timings and engine parity
are unaffected.

Checkpoint/restart
------------------
``solve`` accepts a :class:`~repro.core.checkpoint.CheckpointPolicy`
(``checkpoint=``) and a snapshot path (``resume_from=``).  Every solve
writes one snapshot kind, ``"solver"`` (checkpoint format version 2),
capturing the *complete* loop state: every context vector (and list of
vectors, such as CA-PCG's basis) exported to global layout, the
per-column recurrence coefficients, the solver's dense state arrays
(:attr:`IterativeSolver.dense_state`), the per-column guardrail
counters and outputs, the residual histories, the per-phase event
ledger so far, and solver-specific state (the Chebyshev interval and
Lanczos configuration).  A resumed solve replays the exact arithmetic
the uninterrupted run would have performed: the final result (iterate,
iteration counts, residual history, event stream) is **bit-identical**
in every context and under every kernel backend.  Vectors round-trip
through ``context.to_global``/``from_global`` (pure data movement),
which also makes snapshots portable across kernel backends.  A
serial-context snapshot resumes under the virtual machine too, but the
continued run then follows the distributed reduction ordering --
bit-identity holds per arithmetic stream, not across them.

A diagnosed failure also writes a snapshot when the policy's
``on_failure`` is set; resuming it with a larger iteration budget
continues the columns whose budget ran out.  Snapshots are refused on
mismatch: a different solver, grid shape, column count, right-hand
side (content digest), tolerance or check frequency raises
:class:`~repro.core.checkpoint.CheckpointError` instead of silently
producing a non-reproducible run.
"""

import abc
import math

import numpy as np

from repro.core.cache import digest_of
from repro.core.checkpoint import (
    CheckpointError,
    read_checkpoint,
    sanitize_meta,
)
from repro.core.constants import (
    DEFAULT_CONVERGENCE_CHECK_FREQ,
    DEFAULT_SOLVER_TOLERANCE,
)
from repro.core.errors import BreakdownError, ConvergenceError, SolverError
from repro.parallel.resilience import ResilienceEvent, ResilienceRuntime
from repro.solvers.health import (
    BREAKDOWN,
    BUDGET_EXHAUSTED,
    DIVERGED,
    NONFINITE_INPUT,
    NONFINITE_RESIDUAL,
    SolverDiagnosis,
)
from repro.solvers.result import SolveResult

#: Loop bookkeeping indexed by *running* column (compacted as columns
#: finish); plain lists, so the per-check guardrails are cheap.
_RUNNING_KEYS = ("active", "b_norms", "thresholds", "div_limits",
                 "res_norms", "best", "cwp", "prev", "growing")

#: Loop outputs indexed by *original* column.
_OUTPUT_KEYS = ("b_norms_all", "per_iter", "per_conv", "per_norm",
                "per_stag")


class IterativeSolver(abc.ABC):
    """Base class for ChronGear, P-CSI and PCG.

    Parameters
    ----------
    context:
        A :class:`~repro.solvers.context.SolverContext`.
    tol:
        Convergence tolerance; the solve stops when
        ``|r| <= tol * |b|``.  POP's default is ``1e-13`` (paper
        section 6).  A zero right-hand side returns ``x = 0`` with
        ``iterations=0`` immediately (``extra["zero_rhs"]``).
    max_iterations:
        Iteration budget; exceeded budgets raise
        :class:`~repro.core.errors.ConvergenceError` unless
        ``raise_on_failure=False``.
    check_freq:
        Iterations between convergence checks (paper: 10).  Each check
        costs one global reduction.
    raise_on_failure:
        Return the non-converged result instead of raising when False.
        Guardrail stops (non-finite residual, divergence, breakdown)
        honor the same switch; either way the result carries its
        :class:`~repro.solvers.health.SolverDiagnosis`.
    stagnation_checks:
        Stop early when the checked residual norm has not improved over
        this many consecutive checks -- the explicit residual
        ``b - A x`` has a round-off floor (~eps * |A||x|), and asking
        for a tolerance below it would otherwise burn the whole
        iteration budget.  A stagnated stop sets ``extra["stagnated"]``
        and reports ``converged`` by the usual criterion -- stagnation
        is a round-off floor, not a failure, so it *returns* the result
        even with ``raise_on_failure=True``.  ``0`` disables the
        detector.
    divergence_factor:
        Declare divergence when the checked residual norm exceeds
        ``divergence_factor * |b|`` on consecutive checks while still
        growing.  ``0`` disables the detector.
    """

    #: Name used in experiment tables; subclasses override.
    name = "iterative"

    #: Consecutive above-threshold, still-growing checks that confirm
    #: divergence (one spike at a check boundary is not a verdict).
    divergence_checks = 2

    #: Loop-state entries that are small dense arrays with a trailing
    #: column axis rather than context vectors (CA-PCG's coordinate
    #: system): checkpointed as they are and compacted by indexing.
    dense_state = ()

    #: Solver settings a snapshot must match to resume bit-identically.
    checkpoint_knobs = ("tol", "check_freq")

    def __init__(self, context, tol=DEFAULT_SOLVER_TOLERANCE,
                 max_iterations=10000,
                 check_freq=DEFAULT_CONVERGENCE_CHECK_FREQ,
                 raise_on_failure=True, stagnation_checks=5,
                 divergence_factor=1.0e4):
        if tol <= 0:
            raise SolverError(f"tolerance must be positive, got {tol}")
        if max_iterations < 1:
            raise SolverError(f"max_iterations must be >= 1, got {max_iterations}")
        if check_freq < 1:
            raise SolverError(f"check_freq must be >= 1, got {check_freq}")
        if divergence_factor < 0:
            raise SolverError(
                f"divergence_factor must be >= 0, got {divergence_factor}")
        self.context = context
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.check_freq = int(check_freq)
        self.raise_on_failure = bool(raise_on_failure)
        self.stagnation_checks = int(stagnation_checks)
        self.divergence_factor = float(divergence_factor)
        self._active_resilience = None

    # ------------------------------------------------------------------
    def solve(self, b, x0=None, checkpoint=None, resume_from=None,
              resilience=None):
        """Solve ``A x = b``.

        ``b`` is a global ``(ny, nx)`` array, a ``(ny, nx, k)`` batch,
        or a list/tuple of ``(ny, nx)`` fields (stacked into a batch).
        ``x0`` defaults to zero; a 2-D ``x0`` is shared by every column.
        Values on land are ignored (masked).  Returns a
        :class:`~repro.solvers.result.SolveResult`; abnormal stops raise
        a :class:`~repro.core.errors.ConvergenceError` carrying the
        partial result and a structured diagnosis (see the module
        docstring).

        A batch result has ``x`` of shape ``(ny, nx, k)``; its scalar
        fields summarize the batch (worst residual norm, most
        iterations, ``converged`` = every column converged) and
        ``extra`` carries the per-column truth (``per_rhs_iterations``,
        ``per_rhs_converged``, ``per_rhs_residual_norm``,
        ``per_rhs_b_norm``, and ``per_rhs_diagnosis`` for failed
        columns).  The batch-level diagnosis is the first failing
        column's.

        ``checkpoint`` is an optional
        :class:`~repro.core.checkpoint.CheckpointPolicy`: the loop
        snapshots its full state every ``policy.every`` iterations (and
        on diagnosed failure when ``policy.on_failure``).
        ``resume_from`` names a snapshot to continue from instead of
        running setup; the resumed run is bit-identical to an
        uninterrupted one (see the module docstring).

        ``resilience`` enables the in-solve fault-tolerance layer
        (``True``, a dict of :class:`~repro.parallel.resilience.
        ResiliencePolicy` fields, or a policy object): the loop
        replicates its state to buddy ranks at the policy's cadence,
        runs the ABFT corruption checks, and recovers rank deaths and
        detected corruption by rolling back to the last verified
        replica instead of failing the solve -- recoveries are recorded
        in ``result.extra["resilience"]``.  Requires a distributed
        (virtual-machine) context.
        """
        runtime = None
        if resilience is not None:
            runtime = ResilienceRuntime.create(resilience, self.context)
        try:
            return self._solve_guarded(b, x0, checkpoint, resume_from,
                                       runtime)
        finally:
            if runtime is not None:
                runtime.detach()
                self._active_resilience = None

    def _attach_resilience(self, runtime, state, loop, history):
        """Bind the runtime to the vm and capture the initial replica."""
        runtime.attach()
        self._active_resilience = runtime
        runtime.capture(state, loop, len(history),
                        solver_meta=self._snapshot_solver_meta())

    def _solve_guarded(self, b, x0, checkpoint, resume_from, runtime):
        """The guarded loop (see the module docstring).

        ``loop`` holds all bookkeeping besides the solver's own state:
        the iteration counter, the running columns' guardrail lists
        (:data:`_RUNNING_KEYS`) and the per-column outputs
        (:data:`_OUTPUT_KEYS`, ``x_full``, ``per_diag``, ``per_hist``).
        It is what resilience replicas capture and checkpoints store.
        """
        if isinstance(b, (list, tuple)):
            b = np.stack([np.asarray(col, dtype=np.float64) for col in b],
                         axis=-1)
        b = np.asarray(b)
        batch = b.ndim == 3
        if not batch:
            b = b[..., None]
        ctx = self.context
        ledger = ctx.ledger
        mask = ctx.mask
        nrhs = int(b.shape[2])
        if b.shape[:2] != mask.shape:
            raise SolverError(
                f"b has grid shape {b.shape[:2]}, context expects "
                f"{mask.shape}")
        if x0 is not None:
            x0 = np.asarray(x0, dtype=np.float64)
            if x0.ndim == 2:
                x0 = np.repeat(x0[:, :, None], nrhs, axis=2)
            if x0.shape != b.shape:
                raise SolverError(
                    f"x0 shape {x0.shape} does not match b shape "
                    f"{b.shape}")

        entry_diag = self._check_entry(b, x0, mask)
        if entry_diag is not None:
            loop = _new_loop(np.full(nrhs, np.nan), mask.shape, batch)
            if x0 is not None:
                loop["x_full"] = np.where(mask[..., None], x0, 0.0)
            loop["per_norm"][:] = np.nan
            return self._result(loop, [], {}, {}, {},
                                diagnosis=entry_diag)

        b_masked = np.where(mask[..., None], b, 0.0)
        # Snapshots are keyed on the right-hand side's content.
        b_digest = (digest_of("solve-checkpoint", b_masked)
                    if checkpoint is not None or resume_from is not None
                    else None)

        saved_nrhs = ctx.nrhs
        try:
            if resume_from is not None:
                state, loop, history, acct = self._restore_checkpoint(
                    resume_from, b_digest, nrhs)
                loop["batch"] = batch
            else:
                ctx.nrhs = nrhs
                before_setup = ledger.snapshot()
                b_vec = ctx.from_global(b_masked)
                b_norms_all = np.asarray(ctx.norm2(b_vec, phase="setup"))
                loop = _new_loop(b_norms_all, mask.shape, batch)
                zero = b_norms_all == 0.0
                # Zero columns: the exact solution of the SPD system is
                # x = 0; they exit here, at iteration 0.
                loop["per_conv"][zero] = True
                active = np.flatnonzero(~zero)
                if active.size == 0:
                    return self._result(
                        loop, [], {}, _diff(ledger.snapshot(),
                                            before_setup), {})
                if active.size < nrhs:
                    ctx.nrhs = int(active.size)
                    b_vec = ctx.compact(b_vec, active)
                if x0 is None:
                    x_vec = ctx.new_vector()
                else:
                    x_vec = ctx.from_global(np.ascontiguousarray(
                        np.where(mask[..., None], x0, 0.0)[..., active]))
                try:
                    state = self._setup(b_vec, x_vec)
                except BreakdownError as exc:
                    loop["x_full"][..., active] = ctx.to_global(x_vec)
                    loop["per_norm"][active] = np.nan
                    diagnosis = SolverDiagnosis(
                        kind=BREAKDOWN, solver=self.name,
                        message=f"setup: {exc}", iteration=0,
                        b_norm=float(np.max(b_norms_all)),
                    )
                    return self._result(
                        loop, [], {}, _diff(ledger.snapshot(),
                                            before_setup), {},
                        diagnosis=diagnosis)
                acct = {"after_setup": ledger.snapshot(),
                        "before_setup": before_setup,
                        "setup_events": None, "loop_base": {},
                        "b_digest": b_digest}
                history = []
                b_norms = b_norms_all[active].tolist()
                width = len(b_norms)
                loop.update(
                    active=active.tolist(), b_norms=b_norms,
                    thresholds=[self.tol * v for v in b_norms],
                    div_limits=[self.divergence_factor * v
                                if self.divergence_factor > 0 else math.inf
                                for v in b_norms],
                    res_norms=[math.inf] * width, best=[math.inf] * width,
                    cwp=[0] * width, prev=[math.nan] * width,
                    growing=[0] * width)

            if runtime is not None:
                self._attach_resilience(runtime, state, loop, history)

            while (loop["active"]
                   and loop["iterations"] < self.max_iterations):
                loop["iterations"] += 1
                try:
                    try:
                        self._iterate(state, loop["iterations"])
                    except BreakdownError as exc:
                        if runtime is not None and runtime.intercept(
                                "breakdown", loop["iterations"]):
                            # A transient corruption often presents as a
                            # breakdown (non-finite inner products); roll
                            # back once and replay -- a genuine numerical
                            # breakdown recurs and takes the normal path.
                            raise runtime.suspect(
                                f"breakdown suspected as corruption: "
                                f"{exc}",
                                detail={"check": "breakdown"}) from exc
                        self._fail_running(loop, state, BREAKDOWN,
                                           str(exc))
                        break
                    if loop["iterations"] % self.check_freq == 0:
                        self._check(loop, state, history, runtime)
                        if (runtime is not None and loop["active"]
                                and runtime.capture_due(
                                    loop["iterations"])):
                            # Verify (residual cross-check), then
                            # replicate: a replica only ever copies
                            # vetted state.
                            runtime.verify_and_capture(
                                state, loop, len(history),
                                solver_meta=self._snapshot_solver_meta())
                except ResilienceEvent as event:
                    if runtime is None:
                        raise
                    restored = runtime.rollback(event, loop["iterations"])
                    if restored is None:
                        self._fail_running(
                            loop, state, runtime.kind_of(event),
                            f"{event} (rollback budget of "
                            f"{runtime.policy.max_rollbacks} exhausted)",
                            rollbacks=runtime.counters["rollbacks"],
                            **event.detail)
                        break
                    state, loop, solver_meta, hist_len = restored
                    self._restore_solver_meta(solver_meta or {})
                    del history[hist_len:]
                    ctx.nrhs = len(loop["active"])
                    continue
                if (checkpoint is not None and loop["active"]
                        and checkpoint.due(loop["iterations"])):
                    self._write_checkpoint(checkpoint, state, loop,
                                           history, acct)

            if loop["active"]:
                self._exhaust_budget(loop, state, history)

            per_diag = loop["per_diag"]
            if per_diag:
                ledger_doc = {name: dict(vars(c)) for name, c in
                              self._loop_events(acct).items()}
                for col, diag in per_diag.items():
                    diag.data.setdefault(
                        "last_finite_residual",
                        _last_finite(loop["per_hist"][col]))
                    diag.data.setdefault("ledger", ledger_doc)
                if checkpoint is not None and checkpoint.on_failure:
                    try:
                        self._write_checkpoint(
                            checkpoint, state, loop, history, acct,
                            failure=per_diag[min(per_diag)])
                    except CheckpointError:
                        # A failing snapshot must not mask the solver
                        # failure.
                        pass
            return self._result(loop, history, self._loop_events(acct),
                                self._setup_events(acct),
                                dict(state.get("extra", {})))
        finally:
            ctx.nrhs = saved_nrhs

    # ------------------------------------------------------------------
    # per-column guardrails
    # ------------------------------------------------------------------
    def _check(self, loop, state, history, runtime):
        """One convergence check: per-column guardrails, then freeze and
        compact the columns that finished."""
        iterations = loop["iterations"]
        loop["checked_at"] = iterations
        res_norms = _record(loop, history, self._residual_norm(state))
        if runtime is not None:
            nonfinite = sum(not math.isfinite(v) for v in res_norms)
            if nonfinite and runtime.intercept("nonfinite", iterations):
                raise runtime.suspect(
                    f"{nonfinite} column(s) checked non-finite; "
                    f"suspected corruption",
                    detail={"check": "nonfinite_residual"})
        loop["res_norms"] = res_norms
        thresholds, div_limits = loop["thresholds"], loop["div_limits"]
        prev, growing = loop["prev"], loop["growing"]
        best, cwp = loop["best"], loop["cwp"]
        finished = []
        for pos, (col, norm) in enumerate(zip(loop["active"], res_norms)):
            if not math.isfinite(norm):
                finished.append((pos, False, False, self._diagnose(
                    loop, pos, NONFINITE_RESIDUAL,
                    f"checked residual norm is {norm}",
                    last_finite_norm=_last_finite(loop["per_hist"][col]))))
                continue
            if norm <= thresholds[pos]:
                finished.append((pos, True, False, None))
                continue
            # Divergence: above the limit and still growing (a NaN
            # ``prev`` -- no earlier check -- compares False).
            if norm > div_limits[pos] and norm > prev[pos]:
                growing[pos] += 1
            else:
                growing[pos] = 0
            if growing[pos] >= self.divergence_checks:
                limit = div_limits[pos]
                finished.append((pos, False, False, self._diagnose(
                    loop, pos, DIVERGED,
                    f"|r| = {norm:.3e} grew past "
                    f"{self.divergence_factor:g} * |b| = {limit:.3e} "
                    f"over {growing[pos] + 1} consecutive checks",
                    divergence_factor=self.divergence_factor,
                    limit=limit,
                    history_tail=loop["per_hist"][col][-4:])))
                continue
            prev[pos] = norm
            if norm < best[pos] * (1.0 - 1e-6):
                best[pos] = norm
                cwp[pos] = 0
            else:
                cwp[pos] += 1
                if (self.stagnation_checks
                        and cwp[pos] >= self.stagnation_checks):
                    finished.append((pos, False, True, None))
        if not finished:
            return
        xg = self.context.to_global(state["x"])
        for pos, converged, stagnated, diag in finished:
            _freeze(loop, xg, pos, converged, stagnated, diag)
        done = {f[0] for f in finished}
        keep = [pos for pos in range(len(res_norms)) if pos not in done]
        _retire(loop, keep)
        if keep:
            self.context.nrhs = len(keep)
            self._compact_state(state, np.array(keep))

    def _exhaust_budget(self, loop, state, history):
        """Budget spent with columns still running: one final explicit
        check, then freeze the holdouts with their verdicts."""
        if loop["checked_at"] != loop["iterations"]:
            loop["res_norms"] = _record(loop, history,
                                        self._residual_norm(state))
        xg = self.context.to_global(state["x"])
        for pos, norm in enumerate(loop["res_norms"]):
            threshold = loop["thresholds"][pos]
            conv = math.isfinite(norm) and norm <= threshold
            diag = None
            if not math.isfinite(norm):
                diag = self._diagnose(loop, pos, NONFINITE_RESIDUAL,
                                      f"final residual norm is {norm}")
            elif not conv:
                diag = self._diagnose(
                    loop, pos, BUDGET_EXHAUSTED,
                    f"failed to reach |r| <= {threshold:.3e} after "
                    f"{loop['iterations']} iterations (|r| = {norm:.3e})",
                    threshold=threshold,
                    max_iterations=self.max_iterations)
            _freeze(loop, xg, pos, conv, False, diag)

    def _fail_running(self, loop, state, kind, message, **data):
        """A batch-level verdict (breakdown, exhausted rollbacks): every
        still-running column fails with its own diagnosis."""
        xg = self.context.to_global(state["x"])
        for pos in range(len(loop["active"])):
            _freeze(loop, xg, pos, False, False,
                    self._diagnose(loop, pos, kind, message, **data))
        _retire(loop, [])

    def _diagnose(self, loop, pos, kind, message, **data):
        """A diagnosis for running column ``pos`` at the current
        iteration; batch columns are named in the message and data."""
        if loop["batch"]:
            col = loop["active"][pos]
            message = f"column {col}: {message}"
            data["column"] = col
        return SolverDiagnosis(
            kind=kind, solver=self.name, message=message,
            iteration=loop["iterations"],
            residual_norm=loop["res_norms"][pos],
            b_norm=loop["b_norms"][pos], data=data)

    def _check_entry(self, b, x0, mask):
        """Entry guard: NaN/Inf on ocean points of ``b`` or ``x0``."""
        for label, arr in (("b", b), ("x0", x0)):
            if arr is None or np.isfinite(arr).all():
                continue
            values = np.asarray(arr)[mask]
            if not np.all(np.isfinite(values)):
                bad = int(np.count_nonzero(~np.isfinite(values)))
                return SolverDiagnosis(
                    kind=NONFINITE_INPUT, solver=self.name,
                    message=(f"{label} carries {bad} non-finite ocean "
                             f"value(s) at solve entry"),
                    iteration=0,
                    data={"operand": label, "count": bad},
                )
        return None

    def _result(self, loop, history, events, setup_events, extra,
                diagnosis=None):
        """The one place a loop outcome becomes a :class:`SolveResult`.

        A 2-D solve is presented as a single-RHS result: ``x`` is
        ``(ny, nx)`` and ``extra`` has no per-column keys.  Raises or
        returns according to ``raise_on_failure`` when a column failed
        (or ``diagnosis`` names a batch-level failure).
        """
        per_diag = loop["per_diag"]
        if diagnosis is None and per_diag:
            diagnosis = per_diag[min(per_diag)]
        b_norms_all = loop["b_norms_all"]
        zero_cols = [int(c) for c in np.flatnonzero(b_norms_all == 0.0)]
        stag_cols = [int(c) for c in np.flatnonzero(loop["per_stag"])]
        if zero_cols and len(zero_cols) == b_norms_all.size:
            extra["zero_rhs"] = True
        if stag_cols:
            extra["stagnated"] = True
        x = loop["x_full"]
        if loop["batch"]:
            extra["multi_rhs"] = int(b_norms_all.size)
            extra["per_rhs_iterations"] = [int(v) for v in loop["per_iter"]]
            extra["per_rhs_converged"] = [bool(v) for v in loop["per_conv"]]
            extra["per_rhs_residual_norm"] = [float(v)
                                              for v in loop["per_norm"]]
            extra["per_rhs_b_norm"] = [float(v) for v in b_norms_all]
            if zero_cols:
                extra["zero_rhs_columns"] = zero_cols
            if stag_cols:
                extra["stagnated_columns"] = stag_cols
            if per_diag:
                extra["per_rhs_diagnosis"] = {
                    str(col): diag.to_dict()
                    for col, diag in sorted(per_diag.items())}
        else:
            x = x[..., 0]
        if diagnosis is not None:
            extra["diagnosis"] = diagnosis.to_dict()
        if self._active_resilience is not None:
            extra["resilience"] = self._active_resilience.summary()
        result = SolveResult(
            x=x, iterations=int(loop["iterations"]),
            converged=bool(loop["per_conv"].all()),
            residual_norm=float(np.max(loop["per_norm"])),
            b_norm=float(np.max(b_norms_all)),
            residual_history=history,
            solver=self.name,
            preconditioner=self.context.preconditioner.name,
            events=events,
            setup_events=setup_events,
            extra=extra,
            diagnosis=diagnosis,
        )
        if diagnosis is not None:
            return self._raise_or_return(diagnosis, result)
        return result

    def _raise_or_return(self, diagnosis, result):
        if self.raise_on_failure:
            raise ConvergenceError(
                diagnosis.describe(),
                iterations=result.iterations,
                residual_norm=result.residual_norm,
                result=result, diagnosis=diagnosis,
            )
        return result

    def _setup_events(self, acct):
        """Setup-phase events: measured here, or carried by a resume."""
        if acct["setup_events"] is not None:
            return dict(acct["setup_events"])
        return _diff(acct["after_setup"], acct["before_setup"])

    def _loop_events(self, acct):
        """Loop events so far: pre-resume base + everything since."""
        return _add_events(acct["loop_base"],
                           self.context.ledger.since(acct["after_setup"]))

    # ------------------------------------------------------------------
    # loop state: classification, compaction, checkpoint/restart
    # ------------------------------------------------------------------
    def _state_kind(self, name, value):
        """How a loop-state entry is compacted and checkpointed:
        ``"scalar"``, ``"seq"`` (a list of context vectors), ``"col"``
        (an array with a trailing per-column axis) or ``"vec"`` (a
        context vector)."""
        if value is None or isinstance(value, (bool, int, float,
                                               np.generic)):
            return "scalar"
        if isinstance(value, list):
            return "seq"
        if isinstance(value, np.ndarray) and (value.ndim == 1
                                              or name in self.dense_state):
            return "col"
        return "vec"

    def _compact_state(self, state, keep):
        """Drop finished columns from every entry of the loop state.

        Context vectors compact through :meth:`SolverContext.compact`
        (pure data movement); per-column arrays compact by indexing
        their trailing axis; scalars pass through untouched.
        """
        ctx = self.context
        for name, value in list(state.items()):
            if name == "extra":
                continue
            kind = self._state_kind(name, value)
            if kind == "seq":
                state[name] = [ctx.compact(v, keep) for v in value]
            elif kind == "col":
                state[name] = np.ascontiguousarray(value[..., keep])
            elif kind == "vec":
                state[name] = ctx.compact(value, keep)

    def _snapshot_solver_meta(self):
        """Solver-specific state to checkpoint (hook; JSON-able dict).

        Subclasses whose behavior depends on state outside the loop
        ``state`` dict (P-CSI's Chebyshev interval, Lanczos seeds and
        step counts) override this and :meth:`_restore_solver_meta`.
        """
        return {}

    def _restore_solver_meta(self, meta):
        """Restore what :meth:`_snapshot_solver_meta` captured (hook)."""

    def _write_checkpoint(self, policy, state, loop, history, acct,
                          failure=None):
        """Snapshot the complete loop state through ``policy``."""
        ctx = self.context
        active = loop["active"]
        done = np.setdiff1d(np.arange(loop["b_norms_all"].size), active)
        arrays = {"x_done": loop["x_full"][..., done]}
        for key in _RUNNING_KEYS + _OUTPUT_KEYS:
            arrays[f"loop_{key}"] = np.asarray(loop[key])
        scalars = {}
        seqs = {}
        for name, value in state.items():
            if name == "extra":
                continue
            kind = self._state_kind(name, value)
            if kind == "scalar":
                scalars[name] = value
            elif kind == "seq":
                seqs[name] = len(value)
                for i, v in enumerate(value):
                    arrays[f"seq_{name}_{i}"] = ctx.to_global(v)
            elif kind == "col":
                arrays[f"col_{name}"] = value
            else:
                # Context vectors export to the engine-independent
                # global layout -- snapshots resume on any engine.
                arrays[f"vec_{name}"] = ctx.to_global(value)
        meta = {
            "solver": self.name,
            "preconditioner": ctx.preconditioner.name,
            "shape": [int(s) for s in ctx.mask.shape],
            "nrhs": int(loop["b_norms_all"].size),
            "b_digest": acct["b_digest"],
            "knobs": {knob: getattr(self, knob)
                      for knob in self.checkpoint_knobs},
            "scalars": sanitize_meta(scalars),
            "seqs": seqs,
            "extra": sanitize_meta(state.get("extra", {})),
            "solver_state": sanitize_meta(self._snapshot_solver_meta()),
            "precond_state": sanitize_meta(
                ctx.preconditioner.snapshot_meta()),
            "history": [[int(i), float(r)] for i, r in history],
            "per_history": [[[int(i), float(r)] for i, r in h]
                            for h in loop["per_hist"]],
            "per_diagnosis": {str(c): d.to_dict()
                              for c, d in loop["per_diag"].items()},
            "loop": {"iterations": int(loop["iterations"]),
                     "checked_at": int(loop["checked_at"])},
            "setup_events": _events_to_meta(self._setup_events(acct)),
            "loop_events": _events_to_meta(self._loop_events(acct)),
            "failure": failure.to_dict() if failure is not None else None,
        }
        return policy.write(int(loop["iterations"]), "solver", arrays,
                            meta, failure=failure is not None)

    def _restore_checkpoint(self, path, b_digest, nrhs):
        """Load and verify a snapshot; returns the resumed
        ``(state, loop, history, acct)``."""
        arrays, meta = read_checkpoint(path, kind="solver")
        ctx = self.context
        if meta.get("solver") != self.name:
            raise CheckpointError(
                f"checkpoint {path} belongs to solver "
                f"{meta.get('solver')!r}, not {self.name!r}")
        if tuple(meta.get("shape", ())) != tuple(ctx.mask.shape):
            raise CheckpointError(
                f"checkpoint {path} grid shape {meta.get('shape')} does "
                f"not match context {list(ctx.mask.shape)}")
        if int(meta.get("nrhs", -1)) != nrhs:
            raise CheckpointError(
                f"checkpoint {path} holds {meta.get('nrhs')} RHS "
                f"columns, this solve has {nrhs}")
        if meta.get("b_digest") != b_digest:
            raise CheckpointError(
                f"checkpoint {path} was written for a different "
                f"right-hand side -- resuming would not reproduce the "
                f"original solve")
        knobs = meta.get("knobs", {})
        for knob in self.checkpoint_knobs:
            if knobs.get(knob) != getattr(self, knob):
                raise CheckpointError(
                    f"checkpoint {path} was written with "
                    f"{knob}={knobs.get(knob)!r}, this solver uses "
                    f"{getattr(self, knob)!r}; a resumed run would not "
                    f"be bit-identical")
        loop = {key: np.array(arrays[f"loop_{key}"])
                for key in _OUTPUT_KEYS}
        loop.update({key: arrays[f"loop_{key}"].tolist()
                     for key in _RUNNING_KEYS})
        active = loop["active"] = [int(c) for c in loop["active"]]
        loop["iterations"] = int(meta["loop"]["iterations"])
        loop["checked_at"] = int(meta["loop"]["checked_at"])
        loop["x_full"] = np.zeros(ctx.mask.shape + (nrhs,))
        loop["x_full"][..., np.setdiff1d(np.arange(nrhs), active)] = \
            arrays["x_done"]
        loop["per_hist"] = [[(int(i), float(r)) for i, r in h]
                            for h in meta["per_history"]]
        loop["per_diag"] = {int(c): _diagnosis_from_dict(d)
                            for c, d in meta["per_diagnosis"].items()}
        # Verdicts on still-running columns are the budget verdicts of
        # the run that wrote a failure snapshot; the resumed run
        # decides them afresh.
        for col in active:
            loop["per_diag"].pop(col, None)
        loop["per_conv"][active] = False

        ctx.nrhs = len(active) or None
        state = {}
        for name, value in arrays.items():
            if name.startswith("vec_"):
                state[name[4:]] = ctx.from_global(value)
            elif name.startswith("col_"):
                state[name[4:]] = np.array(value, dtype=np.float64)
        for name, length in meta["seqs"].items():
            state[name] = [ctx.from_global(arrays[f"seq_{name}_{i}"])
                           for i in range(length)]
        state.update(meta["scalars"])
        state["extra"] = dict(meta["extra"])
        self._restore_solver_meta(meta["solver_state"])
        ctx.preconditioner.restore_meta(meta["precond_state"] or {})
        history = [(int(i), float(r)) for i, r in meta["history"]]
        acct = {
            "after_setup": ctx.ledger.snapshot(),
            "before_setup": None,
            "setup_events": _events_from_meta(meta["setup_events"]),
            "loop_base": _events_from_meta(meta["loop_events"]),
            "b_digest": b_digest,
        }
        return state, loop, history, acct

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _setup(self, b, x):
        """Initialize solver state for the running columns of ``b`` and
        ``x`` (context vectors of width ``context.nrhs``); returns a dict
        with at least ``x`` (current iterate) and ``r`` (current
        residual).  Recurrence coefficients are ``(nrhs,)`` arrays."""

    @abc.abstractmethod
    def _iterate(self, state, k):
        """Perform iteration ``k`` in place on ``state``, every running
        column at once.

        Each column must run exactly the arithmetic of a solve of that
        column alone (coefficients are elementwise over the columns).
        An exactly solved column (zero residual) freezes itself through
        zero coefficients, and a non-finite reduction poisons only its
        own column, which the next convergence check diagnoses.  An SPD
        violation on a live column raises
        :class:`~repro.core.errors.BreakdownError`; the guarded loop
        converts it into a diagnosed failure carrying the partial
        result."""

    def _residual_norm(self, state):
        """Masked residual 2-norm (one global reduction -- the
        convergence check the paper charges to all solvers)."""
        return self.context.norm2(state["r"], phase="reduction")


def _diff(after, before):
    """Per-phase difference of two ledger snapshots."""
    from repro.parallel.events import EventCounts

    out = {}
    for name in set(after) | set(before):
        a = after.get(name, EventCounts())
        b = before.get(name, EventCounts())
        out[name] = EventCounts(
            flops=a.flops - b.flops,
            halo_exchanges=a.halo_exchanges - b.halo_exchanges,
            halo_words=a.halo_words - b.halo_words,
            allreduces=a.allreduces - b.allreduces,
            allreduce_words=a.allreduce_words - b.allreduce_words,
        )
    return out


def _add_events(base, delta):
    """Per-phase sum of two event dicts (either may be empty)."""
    from repro.parallel.events import EventCounts

    if not base:
        return dict(delta)
    out = dict(base)
    for name, counts in delta.items():
        out[name] = out.get(name, EventCounts()) + counts
    return out


def _events_to_meta(events):
    """Event dict -> JSON-able nested dict (checkpoint metadata)."""
    return {name: dict(vars(counts)) for name, counts in events.items()}


def _events_from_meta(meta):
    """Inverse of :func:`_events_to_meta`."""
    from repro.parallel.events import EventCounts

    return {name: EventCounts(**{k: int(v) for k, v in counts.items()})
            for name, counts in meta.items()}


def _last_finite(history):
    """Last finite residual norm in a check history (or ``None``)."""
    for _iteration, value in reversed(history):
        if np.isfinite(value):
            return float(value)
    return None


def _diagnosis_from_dict(payload):
    """Rebuild a :class:`SolverDiagnosis` from its ``to_dict()`` form.

    Checkpoint metadata round-trips through JSON, so the float fields
    may come back as strings like ``"nan"``; coerce defensively.
    """
    def _float(value, default):
        try:
            return float(value)
        except (TypeError, ValueError):
            return default

    return SolverDiagnosis(
        kind=str(payload.get("kind", "")),
        solver=str(payload.get("solver", "")),
        message=str(payload.get("message", "")),
        iteration=int(payload.get("iteration", 0)),
        residual_norm=_float(payload.get("residual_norm"), float("nan")),
        b_norm=_float(payload.get("b_norm"), float("nan")),
        data=dict(payload.get("data", {})),
    )


def ieee_div(num, den):
    """``num / den`` with IEEE semantics where Python would raise: a
    zero denominator gives +-inf, or NaN for ``0/0`` and NaN numerators.

    The per-column recurrences divide Python floats; a poisoned column
    (non-finite reductions) can meet a zero denominator, and must turn
    non-finite instead of stopping the batch.
    """
    if den == 0.0:
        if num == 0.0 or num != num:
            return math.nan
        return math.copysign(math.inf, num) * math.copysign(1.0, den)
    return num / den


def column_coeffs(values):
    """Per-column coefficients for the context's elementwise updates.

    A one-column batch gets a plain float -- numpy's scalar fast path,
    the same IEEE products as broadcasting a ``(1,)`` array -- and a
    wider batch a ``(k,)`` array that broadcasts over the column axis.
    """
    return values[0] if len(values) == 1 else np.array(values)


def _new_loop(b_norms_all, shape, batch):
    """Fresh loop bookkeeping for ``b_norms_all.size`` columns (no
    column running yet)."""
    nrhs = int(b_norms_all.size)
    return {
        "batch": batch, "iterations": 0, "checked_at": -1,
        "active": [], "b_norms_all": b_norms_all,
        "x_full": np.zeros(shape + (nrhs,)),
        "per_iter": np.zeros(nrhs, dtype=np.int64),
        "per_conv": np.zeros(nrhs, dtype=bool),
        "per_norm": np.zeros(nrhs),
        "per_stag": np.zeros(nrhs, dtype=bool),
        "per_diag": {},
        "per_hist": [[] for _ in range(nrhs)],
    }


def _record(loop, history, res_norms):
    """Append one check to the batch history (worst running column) and
    to every running column's own history; returns the norms as a
    list."""
    iterations = loop["iterations"]
    res_norms = np.asarray(res_norms)
    history.append((iterations, float(res_norms.max())))
    values = res_norms.tolist()
    for col, norm in zip(loop["active"], values):
        loop["per_hist"][col].append((iterations, norm))
    return values


def _freeze(loop, xg, pos, converged, stagnated, diagnosis):
    """Write running column ``pos`` into the outputs at the current
    iteration (``xg`` is the global iterate of the running columns)."""
    col = loop["active"][pos]
    loop["x_full"][..., col] = xg[..., pos]
    loop["per_iter"][col] = loop["iterations"]
    loop["per_norm"][col] = loop["res_norms"][pos]
    loop["per_conv"][col] = bool(converged)
    loop["per_stag"][col] = bool(stagnated)
    if diagnosis is not None:
        loop["per_diag"][col] = diagnosis


def _retire(loop, keep):
    """Keep only running columns ``keep`` (positions) in the running
    bookkeeping."""
    for key in _RUNNING_KEYS:
        loop[key] = [loop[key][pos] for pos in keep]
