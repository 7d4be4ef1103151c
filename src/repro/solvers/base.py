"""Shared scaffolding for the iterative solvers.

Handles the pieces the paper holds fixed across solvers so comparisons
are fair (section 5.2): the convergence criterion (masked residual
2-norm vs a tolerance relative to ``|b|``), the *check frequency* (POP
checks every 10 iterations -- each check is an extra global reduction,
which is P-CSI's only reduction), and the iteration budget.

Guardrails
----------
The convergence loop is *guarded*: it refuses non-finite inputs at
entry, exits immediately for a zero right-hand side, watches every
checked residual norm for NaN/Inf and for divergence (growth past
``divergence_factor * |b|`` across consecutive checks), and converts
in-iteration breakdowns (:class:`~repro.core.errors.BreakdownError`)
into structured failures.  Every abnormal stop produces a
:class:`~repro.solvers.health.SolverDiagnosis` and a *partial*
:class:`~repro.solvers.result.SolveResult` -- iterate, residual
history, setup and loop events -- attached to the
:class:`~repro.core.errors.ConvergenceError` (or returned directly with
``raise_on_failure=False``), so no diagnostic the ledger collected is
ever discarded.

The guardrail checks reuse residual norms the solver already reduced
and local ``isfinite`` scans of data already in memory; they add no
communication or ledger events, so modeled timings and engine parity
are unaffected.

Checkpoint/restart
------------------
``solve`` accepts a :class:`~repro.core.checkpoint.CheckpointPolicy`
(``checkpoint=``) and a snapshot path (``resume_from=``).  A snapshot
captures the *complete* loop state -- every context vector exported to
global layout, the scalar recurrence state, the residual history, the
guardrail counters, the per-phase event ledger so far, and
solver-specific state (P-CSI's Chebyshev interval and Lanczos
configuration) -- so a resumed solve replays the exact arithmetic the
uninterrupted run would have performed: the final
:class:`~repro.solvers.result.SolveResult` (iterate, iteration count,
residual history, event stream) is **bit-identical** in every context
and under every deterministic kernel backend.  Vectors round-trip
through ``context.to_global``/``from_global`` (pure data movement),
which also makes snapshots portable across kernel backends.  A
serial-context snapshot resumes under the virtual machine too, but
the continued run then follows the distributed reduction ordering --
bit-identity holds per arithmetic stream, not across them.

Snapshots are refused on mismatch: a different solver, grid shape,
right-hand side (content digest), tolerance or check frequency raises
:class:`~repro.core.checkpoint.CheckpointError` instead of silently
producing a non-reproducible run.
"""

import abc

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

        ``b`` and ``x0`` are global ``(ny, nx)`` arrays (``x0`` defaults
        to zero).  Values on land are ignored (masked).  Returns a
        :class:`~repro.solvers.result.SolveResult`; abnormal stops raise
        a :class:`~repro.core.errors.ConvergenceError` carrying the
        partial result and a structured diagnosis (see the module
        docstring).

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

        **Multi-RHS batches**: ``b`` may also be a list/tuple of
        ``(ny, nx)`` fields or a single ``(ny, nx, nrhs)`` array -- the
        solve then runs all columns through one batched iteration loop
        (see :meth:`_solve_multi`) and returns a result whose ``x`` is
        ``(ny, nx, nrhs)`` with per-column accounting in ``extra``.
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

    def _attach_resilience(self, runtime, state, meta, history):
        """Bind the runtime to the vm and capture the initial replica."""
        runtime.attach()
        self._active_resilience = runtime
        runtime.capture(state, meta, len(history),
                        solver_meta=self._snapshot_solver_meta())

    def _solve_guarded(self, b, x0, checkpoint, resume_from, runtime):
        if isinstance(b, (list, tuple)):
            b = np.stack([np.asarray(col, dtype=np.float64) for col in b],
                         axis=-1)
        b = np.asarray(b)
        if b.ndim == 3:
            return self._solve_multi(b, x0=x0, checkpoint=checkpoint,
                                     resume_from=resume_from,
                                     runtime=runtime)
        ctx = self.context
        ledger = ctx.ledger
        mask = ctx.mask

        entry_diag = self._check_entry(b, x0, mask)
        if entry_diag is not None:
            return self._fail_before_setup(entry_diag, b, x0, mask)

        # np.where, not multiplication: NaN * 0 is NaN, so a (legitimate)
        # non-finite land value would survive `b * mask` and poison the
        # solve the entry guard just vetted.
        b_masked = np.where(mask, b, 0.0)
        b_digest = digest_of("solve-checkpoint", b_masked)

        if resume_from is not None:
            (state, history, loop, acct,
             b_norm) = self._restore_checkpoint(resume_from, b_digest)
            threshold = self.tol * b_norm
            iterations = loop["iterations"]
            res_norm = loop["res_norm"]
            checked_at = loop["checked_at"]
            best_norm = loop["best_norm"]
            checks_without_progress = loop["checks_without_progress"]
            prev_checked = loop["prev_checked"]
            growing_past_limit = loop["growing_past_limit"]
        else:
            b_vec = ctx.from_global(b_masked)
            if x0 is None:
                x_vec = ctx.new_vector()
            else:
                x_vec = ctx.from_global(np.where(mask, x0, 0.0))

            before_setup = ledger.snapshot()
            b_norm = ctx.norm2(b_vec, phase="setup")
            if b_norm == 0.0:
                # Zero RHS: the exact solution of the SPD system is
                # x = 0; running even ``check_freq`` iterations to
                # discover that wastes halo exchanges and reductions.
                after_setup = ledger.snapshot()
                return SolveResult(
                    x=ctx.to_global(ctx.new_vector()),
                    iterations=0, converged=True,
                    residual_norm=0.0, b_norm=0.0,
                    residual_history=[],
                    solver=self.name,
                    preconditioner=ctx.preconditioner.name,
                    events={},
                    setup_events=_diff(after_setup, before_setup),
                    extra={"zero_rhs": True},
                )
            threshold = self.tol * b_norm
            try:
                state = self._setup(b_vec, x_vec)
            except BreakdownError as exc:
                diagnosis = SolverDiagnosis(
                    kind=BREAKDOWN, solver=self.name,
                    message=f"setup: {exc}", iteration=0, b_norm=b_norm,
                )
                result = SolveResult(
                    x=ctx.to_global(x_vec),
                    iterations=0, converged=False,
                    residual_norm=float("nan"), b_norm=b_norm,
                    residual_history=[], solver=self.name,
                    preconditioner=ctx.preconditioner.name,
                    events={},
                    setup_events=_diff(ledger.snapshot(), before_setup),
                    extra={"diagnosis": diagnosis.to_dict()},
                    diagnosis=diagnosis,
                )
                return self._raise_or_return(diagnosis, result)
            after_setup = ledger.snapshot()
            acct = {"after_setup": after_setup,
                    "before_setup": before_setup,
                    "setup_events": None, "loop_base": {},
                    "b_digest": b_digest}

            history = []
            iterations = 0
            res_norm = float("inf")
            checked_at = -1
            best_norm = float("inf")
            checks_without_progress = 0
            prev_checked = None
            growing_past_limit = 0

        converged = False
        stagnated = False
        diagnosis = None
        divergence_limit = (self.divergence_factor * b_norm
                            if self.divergence_factor > 0 else float("inf"))

        def loop_meta():
            # Reads the *current* local values when invoked (closure):
            # everything the loop needs to continue exactly where it
            # stopped.
            return {
                "iterations": iterations,
                "res_norm": res_norm,
                "checked_at": checked_at,
                "best_norm": best_norm,
                "checks_without_progress": checks_without_progress,
                "prev_checked": prev_checked,
                "growing_past_limit": growing_past_limit,
            }

        if runtime is not None:
            self._attach_resilience(runtime, state, loop_meta(), history)

        while iterations < self.max_iterations:
            iterations += 1
            try:
                try:
                    self._iterate(state, iterations)
                except BreakdownError as exc:
                    if runtime is not None and runtime.intercept(
                            "breakdown", iterations):
                        # A transient corruption often presents as a
                        # breakdown (non-finite inner products); roll
                        # back once and replay -- a genuine numerical
                        # breakdown recurs and takes the normal path.
                        raise runtime.suspect(
                            f"breakdown suspected as corruption: {exc}",
                            detail={"check": "breakdown"}) from exc
                    diagnosis = SolverDiagnosis(
                        kind=BREAKDOWN, solver=self.name,
                        message=str(exc), iteration=iterations,
                        residual_norm=res_norm, b_norm=b_norm,
                    )
                    break
                if iterations % self.check_freq == 0:
                    res_norm = self._residual_norm(state)
                    checked_at = iterations
                    history.append((iterations, res_norm))
                    if not np.isfinite(res_norm):
                        if runtime is not None and runtime.intercept(
                                "nonfinite", iterations):
                            raise runtime.suspect(
                                f"checked residual norm is {res_norm}; "
                                f"suspected corruption",
                                detail={"check": "nonfinite_residual"})
                        diagnosis = SolverDiagnosis(
                            kind=NONFINITE_RESIDUAL, solver=self.name,
                            message=f"checked residual norm is {res_norm}",
                            iteration=iterations, residual_norm=res_norm,
                            b_norm=b_norm,
                            data={"last_finite_norm": prev_checked},
                        )
                        break
                    if res_norm <= threshold:
                        converged = True
                        break
                    if (res_norm > divergence_limit
                            and prev_checked is not None
                            and res_norm > prev_checked):
                        growing_past_limit += 1
                        if growing_past_limit >= self.divergence_checks:
                            diagnosis = SolverDiagnosis(
                                kind=DIVERGED, solver=self.name,
                                message=(
                                    f"|r| = {res_norm:.3e} grew past "
                                    f"{self.divergence_factor:g} * |b| = "
                                    f"{divergence_limit:.3e} over "
                                    f"{growing_past_limit + 1} consecutive "
                                    f"checks"),
                                iteration=iterations,
                                residual_norm=res_norm,
                                b_norm=b_norm,
                                data={
                                    "divergence_factor":
                                        self.divergence_factor,
                                    "limit": divergence_limit,
                                    "history_tail": history[-4:],
                                },
                            )
                            break
                    else:
                        growing_past_limit = 0
                    prev_checked = res_norm
                    if res_norm < best_norm * (1.0 - 1e-6):
                        best_norm = res_norm
                        checks_without_progress = 0
                    else:
                        checks_without_progress += 1
                        if (self.stagnation_checks
                                and checks_without_progress
                                >= self.stagnation_checks):
                            stagnated = True
                            break
                    if runtime is not None and runtime.capture_due(
                            iterations):
                        # Verify (residual cross-check), then replicate:
                        # a replica only ever copies vetted state.
                        runtime.verify_and_capture(
                            state, loop_meta(), len(history),
                            solver_meta=self._snapshot_solver_meta())
            except ResilienceEvent as event:
                if runtime is None:
                    raise
                restored = runtime.rollback(event, iterations)
                if restored is None:
                    diagnosis = SolverDiagnosis(
                        kind=runtime.kind_of(event), solver=self.name,
                        message=(
                            f"{event} (rollback budget of "
                            f"{runtime.policy.max_rollbacks} exhausted)"),
                        iteration=iterations, residual_norm=res_norm,
                        b_norm=b_norm,
                        data={"rollbacks":
                              runtime.counters["rollbacks"],
                              **event.detail},
                    )
                    break
                state, meta, solver_meta, hist_len = restored
                self._restore_solver_meta(solver_meta or {})
                del history[hist_len:]
                iterations = meta["iterations"]
                res_norm = meta["res_norm"]
                checked_at = meta["checked_at"]
                best_norm = meta["best_norm"]
                checks_without_progress = meta["checks_without_progress"]
                prev_checked = meta["prev_checked"]
                growing_past_limit = meta["growing_past_limit"]
                continue
            if checkpoint is not None and checkpoint.due(iterations):
                self._write_checkpoint(checkpoint, state, history,
                                       loop_meta(), acct, b_norm)

        if diagnosis is not None:
            return self._fail(diagnosis, state, history, loop_meta(),
                              b_norm, acct, checkpoint=checkpoint)

        if not converged:
            if checked_at != iterations:
                res_norm = self._residual_norm(state)
                history.append((iterations, res_norm))
                if not np.isfinite(res_norm):
                    diagnosis = SolverDiagnosis(
                        kind=NONFINITE_RESIDUAL, solver=self.name,
                        message=f"final residual norm is {res_norm}",
                        iteration=iterations, residual_norm=res_norm,
                        b_norm=b_norm,
                    )
                    return self._fail(diagnosis, state, history,
                                      loop_meta(), b_norm, acct,
                                      checkpoint=checkpoint)
            converged = res_norm <= threshold
            if not converged and not stagnated:
                diagnosis = SolverDiagnosis(
                    kind=BUDGET_EXHAUSTED, solver=self.name,
                    message=(
                        f"failed to reach |r| <= {threshold:.3e} after "
                        f"{iterations} iterations (|r| = {res_norm:.3e})"),
                    iteration=iterations, residual_norm=res_norm,
                    b_norm=b_norm,
                    data={"threshold": threshold,
                          "max_iterations": self.max_iterations},
                )
                return self._fail(diagnosis, state, history, loop_meta(),
                                  b_norm, acct, checkpoint=checkpoint)
        if stagnated:
            # Stagnation is a round-off floor, not a failure: record it
            # and return the result as documented.
            state.setdefault("extra", {})["stagnated"] = True

        return self._build_result(state, history, iterations, converged,
                                  res_norm, b_norm, acct)

    # ------------------------------------------------------------------
    # guardrail plumbing
    # ------------------------------------------------------------------
    def _check_entry(self, b, x0, mask):
        """Entry guard: NaN/Inf on ocean points of ``b`` or ``x0``."""
        for label, arr in (("b", b), ("x0", x0)):
            if arr is None:
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

    def _fail_before_setup(self, diagnosis, b, x0, mask):
        """Fail with a minimal partial result (no solver state yet)."""
        x = np.zeros_like(np.asarray(b, dtype=np.float64)) if x0 is None \
            else np.where(mask, np.asarray(x0, dtype=np.float64), 0.0)
        result = SolveResult(
            x=x, iterations=0, converged=False,
            residual_norm=float("nan"), b_norm=float("nan"),
            residual_history=[], solver=self.name,
            preconditioner=self.context.preconditioner.name,
            events={}, setup_events={},
            extra={"diagnosis": diagnosis.to_dict()},
            diagnosis=diagnosis,
        )
        return self._raise_or_return(diagnosis, result)

    def _fail(self, diagnosis, state, history, loop, b_norm, acct,
              checkpoint=None):
        """Build the partial result for an abnormal stop and raise or
        return it according to ``raise_on_failure``.

        The diagnosis always carries the last *finite* checked residual
        and the per-phase event ledger at the point of failure, so a
        checkpoint-resume after diagnosis loses no accounting.  When a
        checkpoint policy with ``on_failure`` is attached, the full loop
        state is snapshotted before raising.
        """
        diagnosis.data.setdefault("last_finite_residual",
                                  _last_finite(history))
        diagnosis.data.setdefault(
            "ledger",
            {name: dict(vars(c)) for name, c in self._loop_events(
                acct).items()})
        if checkpoint is not None and checkpoint.on_failure:
            try:
                self._write_checkpoint(checkpoint, state, history, loop,
                                       acct, b_norm, failure=diagnosis)
            except CheckpointError:
                # A failing snapshot must not mask the solver failure.
                pass
        result = self._build_result(state, history, loop["iterations"],
                                    False, loop["res_norm"], b_norm,
                                    acct, diagnosis=diagnosis)
        return self._raise_or_return(diagnosis, result)

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

    def _build_result(self, state, history, iterations, converged,
                      res_norm, b_norm, acct, diagnosis=None):
        ctx = self.context
        extra = dict(state.get("extra", {}))
        if diagnosis is not None:
            extra["diagnosis"] = diagnosis.to_dict()
        runtime = getattr(self, "_active_resilience", None)
        if runtime is not None:
            extra["resilience"] = runtime.summary()
        return SolveResult(
            x=ctx.to_global(state["x"]),
            iterations=iterations,
            converged=converged,
            residual_norm=res_norm,
            b_norm=b_norm,
            residual_history=history,
            solver=self.name,
            preconditioner=ctx.preconditioner.name,
            events=self._loop_events(acct),
            setup_events=self._setup_events(acct),
            extra=extra,
            diagnosis=diagnosis,
        )

    # ------------------------------------------------------------------
    # checkpoint/restart plumbing
    # ------------------------------------------------------------------
    def _snapshot_solver_meta(self):
        """Solver-specific state to checkpoint (hook; JSON-able dict).

        Subclasses whose behavior depends on state outside the loop
        ``state`` dict (P-CSI's Chebyshev interval, Lanczos seeds and
        step counts) override this and :meth:`_restore_solver_meta`.
        """
        return {}

    def _restore_solver_meta(self, meta):
        """Restore what :meth:`_snapshot_solver_meta` captured (hook)."""

    def _write_checkpoint(self, policy, state, history, loop, acct,
                          b_norm, failure=None):
        """Snapshot the complete loop state through ``policy``."""
        ctx = self.context
        arrays = {}
        scalars = {}
        for name, value in state.items():
            if name == "extra":
                continue
            if value is None or isinstance(value, (bool, int, float)):
                scalars[name] = value
            elif isinstance(value, np.generic):
                scalars[name] = value.item()
            else:
                # Context vectors export to the engine-independent
                # global layout -- snapshots resume on any engine.
                arrays[f"vec_{name}"] = ctx.to_global(value)
        meta = {
            "solver": self.name,
            "preconditioner": ctx.preconditioner.name,
            "shape": [int(s) for s in ctx.mask.shape],
            "b_digest": acct["b_digest"],
            "b_norm": float(b_norm),
            "tol": self.tol,
            "check_freq": self.check_freq,
            "scalars": sanitize_meta(scalars),
            "extra": sanitize_meta(state.get("extra", {})),
            "solver_state": sanitize_meta(self._snapshot_solver_meta()),
            "precond_state": sanitize_meta(
                ctx.preconditioner.snapshot_meta()),
            "history": [[int(i), float(r)] for i, r in history],
            "loop": sanitize_meta(loop),
            "setup_events": _events_to_meta(self._setup_events(acct)),
            "loop_events": _events_to_meta(self._loop_events(acct)),
            "failure": failure.to_dict() if failure is not None else None,
        }
        return policy.write(loop["iterations"], "solver", arrays, meta,
                            failure=failure is not None)

    def _restore_checkpoint(self, path, b_digest):
        """Load and verify a snapshot; returns the resumed loop state."""
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
        if meta.get("b_digest") != b_digest:
            raise CheckpointError(
                f"checkpoint {path} was written for a different "
                f"right-hand side -- resuming would not reproduce the "
                f"original solve")
        for knob in ("tol", "check_freq"):
            if meta.get(knob) != getattr(self, knob):
                raise CheckpointError(
                    f"checkpoint {path} was written with "
                    f"{knob}={meta.get(knob)!r}, this solver uses "
                    f"{getattr(self, knob)!r}; a resumed run would not "
                    f"be bit-identical")
        state = {}
        for name, value in arrays.items():
            if name.startswith("vec_"):
                state[name[4:]] = ctx.from_global(value)
        state.update(meta.get("scalars", {}))
        state["extra"] = dict(meta.get("extra", {}))
        self._restore_solver_meta(meta.get("solver_state", {}))
        ctx.preconditioner.restore_meta(meta.get("precond_state") or {})
        history = [(int(i), float(r)) for i, r in meta.get("history", [])]
        loop = dict(meta["loop"])
        acct = {
            "after_setup": ctx.ledger.snapshot(),
            "before_setup": None,
            "setup_events": _events_from_meta(meta["setup_events"]),
            "loop_base": _events_from_meta(meta["loop_events"]),
            "b_digest": b_digest,
        }
        return state, history, loop, acct, float(meta["b_norm"])

    # ------------------------------------------------------------------
    # multi-RHS batched solve
    # ------------------------------------------------------------------
    def _solve_multi(self, b, x0=None, checkpoint=None, resume_from=None,
                     runtime=None):
        """Solve ``A x_j = b_j`` for every column of a ``(ny, nx, nrhs)``
        batch through **one** iteration loop.

        All columns share each halo exchange, stencil application,
        preconditioner application and (fused, ``nrhs``-word) global
        reduction, which is where the batching speedup comes from.  Per
        column, the arithmetic stream is *bit-identical* to a standalone
        single-RHS solve on the same engine and kernel backend: every
        elementwise update broadcasts scalar-identical coefficients over
        the trailing axis, and reductions run per column on contiguous
        copies.

        The guarded-loop semantics apply per column: a column converges,
        diverges, stagnates, or goes non-finite on its own, is frozen
        into the output at the iteration where that happened (its exact
        iteration count lands in ``extra["per_rhs_iterations"]``), and
        the remaining columns are *compacted* so later iterations do no
        work for finished columns.  Zero-RHS columns exit at iteration 0.
        A :class:`BreakdownError` raised by the batched recurrence is a
        batch-level verdict (SPD violation) and fails all still-active
        columns.

        The result's scalar fields summarize the batch (worst residual
        norm, max iterations, ``converged`` = all columns converged);
        ``extra`` carries the per-column truth, including a
        ``per_rhs_diagnosis`` dict for failed columns.  With
        ``raise_on_failure`` the first failing column's diagnosis is
        raised, carrying the full batch result.
        """
        ctx = self.context
        ledger = ctx.ledger
        mask = ctx.mask
        nrhs = int(b.shape[2])
        if b.shape[:2] != mask.shape:
            raise SolverError(
                f"multi-RHS b has grid shape {b.shape[:2]}, context "
                f"expects {mask.shape}")
        if x0 is not None:
            x0 = np.asarray(x0, dtype=np.float64)
            if x0.ndim == 2:
                # One shared initial guess for every column.
                x0 = np.repeat(x0[:, :, None], nrhs, axis=2)
            if x0.shape != b.shape:
                raise SolverError(
                    f"x0 batch shape {x0.shape} does not match b shape "
                    f"{b.shape}")

        entry_diag = self._check_entry(b, x0, mask)
        if entry_diag is not None:
            x = (np.zeros_like(b, dtype=np.float64) if x0 is None
                 else np.where(mask[..., None], x0, 0.0))
            result = SolveResult(
                x=x, iterations=0, converged=False,
                residual_norm=float("nan"), b_norm=float("nan"),
                residual_history=[], solver=self.name,
                preconditioner=ctx.preconditioner.name,
                events={}, setup_events={},
                extra={"diagnosis": entry_diag.to_dict()},
                diagnosis=entry_diag,
            )
            return self._raise_or_return(entry_diag, result)

        b_masked = np.where(mask[..., None], b, 0.0)
        b_digest = digest_of("solve-checkpoint", b_masked)

        # Full-width outputs, indexed by original column id.
        x_full = np.zeros(mask.shape + (nrhs,))
        per_iter = np.zeros(nrhs, dtype=np.int64)
        per_conv = np.zeros(nrhs, dtype=bool)
        per_norm = np.zeros(nrhs)
        per_stag = np.zeros(nrhs, dtype=bool)
        per_hist = [[] for _ in range(nrhs)]
        per_diag = {}

        saved_nrhs = ctx.nrhs
        try:
            if resume_from is not None:
                (state, acct, b_norms_all, active, loop, outputs,
                 histories) = self._restore_checkpoint_multi(
                     resume_from, b_digest, nrhs)
                x_full, per_iter, per_conv, per_norm, per_stag = outputs
                per_hist, per_diag, history = histories
                iterations = loop["iterations"]
                checked_at = loop["checked_at"]
                res_norms = loop["res_norms"]
                best = loop["best"]
                cwp = loop["cwp"]
                prev = loop["prev"]
                growing = loop["growing"]
                b_norms = b_norms_all[active]
                thresholds = self.tol * b_norms
            else:
                ctx.nrhs = nrhs
                before_setup = ledger.snapshot()
                b_vec_full = ctx.from_global(b_masked)
                b_norms_all = ctx.norm2(b_vec_full, phase="setup")
                zero = b_norms_all == 0.0
                # Zero columns: the exact solution of the SPD system is
                # x = 0; they exit here, at iteration 0.
                per_conv[zero] = True
                active = np.flatnonzero(~zero)
                if active.size == 0:
                    after_setup = ledger.snapshot()
                    return SolveResult(
                        x=x_full, iterations=0, converged=True,
                        residual_norm=0.0, b_norm=0.0,
                        residual_history=[], solver=self.name,
                        preconditioner=ctx.preconditioner.name,
                        events={},
                        setup_events=_diff(after_setup, before_setup),
                        extra=self._multi_extra(
                            {}, nrhs, per_iter, per_conv, per_norm,
                            per_stag, per_diag, b_norms_all),
                    )
                if active.size < nrhs:
                    ctx.nrhs = int(active.size)
                    b_vec = ctx.compact(b_vec_full, active)
                else:
                    b_vec = b_vec_full
                if x0 is None:
                    x_vec = ctx.new_vector()
                else:
                    x_vec = ctx.from_global(np.ascontiguousarray(
                        np.where(mask[..., None], x0, 0.0)[..., active]))
                b_norms = b_norms_all[active]
                thresholds = self.tol * b_norms
                try:
                    state = self._setup(b_vec, x_vec)
                except BreakdownError as exc:
                    diagnosis = SolverDiagnosis(
                        kind=BREAKDOWN, solver=self.name,
                        message=f"setup: {exc}", iteration=0,
                        b_norm=float(np.max(b_norms_all)),
                    )
                    result = SolveResult(
                        x=x_full, iterations=0, converged=False,
                        residual_norm=float("nan"),
                        b_norm=float(np.max(b_norms_all)),
                        residual_history=[], solver=self.name,
                        preconditioner=ctx.preconditioner.name,
                        events={},
                        setup_events=_diff(ledger.snapshot(),
                                           before_setup),
                        extra={"diagnosis": diagnosis.to_dict()},
                        diagnosis=diagnosis,
                    )
                    return self._raise_or_return(diagnosis, result)
                after_setup = ledger.snapshot()
                acct = {"after_setup": after_setup,
                        "before_setup": before_setup,
                        "setup_events": None, "loop_base": {},
                        "b_digest": b_digest}
                history = []
                iterations = 0
                checked_at = -1
                res_norms = np.full(active.size, np.inf)
                best = np.full(active.size, np.inf)
                cwp = np.zeros(active.size, dtype=np.int64)
                prev = np.full(active.size, np.nan)
                growing = np.zeros(active.size, dtype=np.int64)

            div_limits = (self.divergence_factor * b_norms
                          if self.divergence_factor > 0
                          else np.full(active.size, np.inf))

            def freeze(pos, col, norm):
                x_full[..., col] = xg[..., pos]
                per_iter[col] = iterations
                per_norm[col] = norm

            def loop_meta_multi():
                return {
                    "iterations": iterations,
                    "checked_at": checked_at,
                    "active": active,
                    "b_norms": b_norms,
                    "thresholds": thresholds,
                    "div_limits": div_limits,
                    "res_norms": res_norms,
                    "best": best,
                    "cwp": cwp,
                    "prev": prev,
                    "growing": growing,
                    "x_full": x_full,
                    "per_iter": per_iter,
                    "per_conv": per_conv,
                    "per_norm": per_norm,
                    "per_stag": per_stag,
                    "per_diag": dict(per_diag),
                    "per_hist_len": [len(h) for h in per_hist],
                    "nrhs_active": int(active.size),
                }

            if runtime is not None:
                self._attach_resilience(runtime, state, loop_meta_multi(),
                                        history)

            while active.size and iterations < self.max_iterations:
                iterations += 1
                try:
                    try:
                        self._iterate(state, iterations)
                    except BreakdownError as exc:
                        if runtime is not None and runtime.intercept(
                                "breakdown", iterations):
                            raise runtime.suspect(
                                f"breakdown suspected as corruption: "
                                f"{exc}",
                                detail={"check": "breakdown"}) from exc
                        # Batch-level verdict: the recurrence broke for
                        # the whole batch (SPD violation); every
                        # still-active column fails with its own
                        # BREAKDOWN diagnosis.
                        xg = ctx.to_global(state["x"])
                        for pos, col in enumerate(active):
                            col = int(col)
                            freeze(pos, col, res_norms[pos])
                            per_diag[col] = SolverDiagnosis(
                                kind=BREAKDOWN, solver=self.name,
                                message=str(exc), iteration=iterations,
                                residual_norm=float(res_norms[pos]),
                                b_norm=float(b_norms[pos]),
                                data={"column": col},
                            )
                        active = active[:0]
                        break
                    if iterations % self.check_freq == 0:
                        res_norms = np.asarray(self._residual_norm(state))
                        checked_at = iterations
                        history.append(
                            (iterations, float(np.max(res_norms))))
                        for pos, col in enumerate(active):
                            per_hist[int(col)].append(
                                (iterations, float(res_norms[pos])))
                        # Per-column guardrails -- the exact scalar-loop
                        # semantics, vectorized over the active columns.
                        nonfin = ~np.isfinite(res_norms)
                        if (runtime is not None and nonfin.any()
                                and runtime.intercept("nonfinite",
                                                      iterations)):
                            raise runtime.suspect(
                                f"{int(nonfin.sum())} column(s) checked "
                                f"non-finite; suspected corruption",
                                detail={"check": "nonfinite_residual"})
                        conv = ~nonfin & (res_norms <= thresholds)
                        live = ~nonfin & ~conv
                        grow = (live & (res_norms > div_limits)
                                & ~np.isnan(prev) & (res_norms > prev))
                        growing[grow] += 1
                        growing[live & ~grow] = 0
                        div = live & (growing >= self.divergence_checks)
                        upd = live & ~div
                        prev[upd] = res_norms[upd]
                        improved = upd & (res_norms < best * (1.0 - 1e-6))
                        best[improved] = res_norms[improved]
                        cwp[improved] = 0
                        cwp[upd & ~improved] += 1
                        if self.stagnation_checks:
                            stag = (upd & ~improved
                                    & (cwp >= self.stagnation_checks))
                        else:
                            stag = np.zeros(active.size, dtype=bool)
                        finished = nonfin | conv | div | stag
                        if finished.any():
                            xg = ctx.to_global(state["x"])
                            for pos in np.flatnonzero(finished):
                                col = int(active[pos])
                                freeze(pos, col, res_norms[pos])
                                per_conv[col] = bool(conv[pos])
                                per_stag[col] = bool(stag[pos])
                                if nonfin[pos]:
                                    per_diag[col] = SolverDiagnosis(
                                        kind=NONFINITE_RESIDUAL,
                                        solver=self.name,
                                        message=(
                                            f"column {col}: checked "
                                            f"residual norm is "
                                            f"{res_norms[pos]}"),
                                        iteration=iterations,
                                        residual_norm=float(
                                            res_norms[pos]),
                                        b_norm=float(b_norms[pos]),
                                        data={
                                            "column": col,
                                            "last_finite_norm":
                                                _last_finite(
                                                    per_hist[col]),
                                        },
                                    )
                                elif div[pos]:
                                    per_diag[col] = SolverDiagnosis(
                                        kind=DIVERGED, solver=self.name,
                                        message=(
                                            f"column {col}: |r| = "
                                            f"{res_norms[pos]:.3e} grew "
                                            f"past "
                                            f"{self.divergence_factor:g}"
                                            f" * |b| = "
                                            f"{div_limits[pos]:.3e} over "
                                            f"{int(growing[pos]) + 1} "
                                            f"consecutive checks"),
                                        iteration=iterations,
                                        residual_norm=float(
                                            res_norms[pos]),
                                        b_norm=float(b_norms[pos]),
                                        data={
                                            "column": col,
                                            "divergence_factor":
                                                self.divergence_factor,
                                            "limit": float(
                                                div_limits[pos]),
                                            "history_tail":
                                                per_hist[col][-4:],
                                        },
                                    )
                            keep = np.flatnonzero(~finished)
                            old_width = int(active.size)
                            active = active[keep]
                            b_norms = b_norms[keep]
                            thresholds = thresholds[keep]
                            div_limits = div_limits[keep]
                            res_norms = res_norms[keep]
                            best = best[keep]
                            cwp = cwp[keep]
                            prev = prev[keep]
                            growing = growing[keep]
                            if active.size:
                                ctx.nrhs = int(active.size)
                                self._compact_state(state, keep,
                                                    old_width)
                        if (runtime is not None and active.size
                                and runtime.capture_due(iterations)):
                            runtime.verify_and_capture(
                                state, loop_meta_multi(), len(history),
                                solver_meta=self._snapshot_solver_meta())
                except ResilienceEvent as event:
                    if runtime is None:
                        raise
                    restored = runtime.rollback(event, iterations)
                    if restored is None:
                        # Rollback budget exhausted: fail every
                        # still-active column with a resilience kind.
                        xg = ctx.to_global(state["x"])
                        for pos, col in enumerate(active):
                            col = int(col)
                            freeze(pos, col, res_norms[pos])
                            per_diag[col] = SolverDiagnosis(
                                kind=runtime.kind_of(event),
                                solver=self.name,
                                message=(
                                    f"{event} (rollback budget of "
                                    f"{runtime.policy.max_rollbacks} "
                                    f"exhausted)"),
                                iteration=iterations,
                                residual_norm=float(res_norms[pos]),
                                b_norm=float(b_norms[pos]),
                                data={"column": col,
                                      "rollbacks":
                                          runtime.counters["rollbacks"],
                                      **event.detail},
                            )
                        active = active[:0]
                        break
                    state, meta, solver_meta, hist_len = restored
                    self._restore_solver_meta(solver_meta or {})
                    del history[hist_len:]
                    iterations = meta["iterations"]
                    checked_at = meta["checked_at"]
                    active = meta["active"]
                    b_norms = meta["b_norms"]
                    thresholds = meta["thresholds"]
                    div_limits = meta["div_limits"]
                    res_norms = meta["res_norms"]
                    best = meta["best"]
                    cwp = meta["cwp"]
                    prev = meta["prev"]
                    growing = meta["growing"]
                    x_full = meta["x_full"]
                    per_iter = meta["per_iter"]
                    per_conv = meta["per_conv"]
                    per_norm = meta["per_norm"]
                    per_stag = meta["per_stag"]
                    per_diag.clear()
                    per_diag.update(meta["per_diag"])
                    for hist, length in zip(per_hist,
                                            meta["per_hist_len"]):
                        del hist[length:]
                    ctx.nrhs = int(meta["nrhs_active"])
                    continue
                if (checkpoint is not None and active.size
                        and checkpoint.due(iterations)):
                    self._write_checkpoint_multi(
                        checkpoint, state, acct, b_norms_all, active,
                        iterations, checked_at, history, res_norms,
                        best, cwp, prev, growing, x_full, per_iter,
                        per_conv, per_norm, per_stag, per_hist, per_diag)

            if active.size:
                # Budget exhausted with columns still running: one final
                # explicit check, then freeze the holdouts.
                if checked_at != iterations:
                    res_norms = np.asarray(self._residual_norm(state))
                    history.append((iterations, float(np.max(res_norms))))
                    for pos, col in enumerate(active):
                        per_hist[int(col)].append(
                            (iterations, float(res_norms[pos])))
                conv = np.isfinite(res_norms) & (res_norms <= thresholds)
                xg = ctx.to_global(state["x"])
                for pos, col in enumerate(active):
                    col = int(col)
                    freeze(pos, col, res_norms[pos])
                    per_conv[col] = bool(conv[pos])
                    if conv[pos]:
                        continue
                    if not np.isfinite(res_norms[pos]):
                        per_diag[col] = SolverDiagnosis(
                            kind=NONFINITE_RESIDUAL, solver=self.name,
                            message=(f"column {col}: final residual "
                                     f"norm is {res_norms[pos]}"),
                            iteration=iterations,
                            residual_norm=float(res_norms[pos]),
                            b_norm=float(b_norms[pos]),
                            data={"column": col},
                        )
                    else:
                        per_diag[col] = SolverDiagnosis(
                            kind=BUDGET_EXHAUSTED, solver=self.name,
                            message=(
                                f"column {col}: failed to reach |r| <= "
                                f"{thresholds[pos]:.3e} after "
                                f"{iterations} iterations (|r| = "
                                f"{res_norms[pos]:.3e})"),
                            iteration=iterations,
                            residual_norm=float(res_norms[pos]),
                            b_norm=float(b_norms[pos]),
                            data={"column": col,
                                  "threshold": float(thresholds[pos]),
                                  "max_iterations": self.max_iterations},
                        )

            extra = self._multi_extra(
                dict(state.get("extra", {})), nrhs, per_iter, per_conv,
                per_norm, per_stag, per_diag, b_norms_all)
            if runtime is not None:
                extra["resilience"] = runtime.summary()
            batch_diag = per_diag[min(per_diag)] if per_diag else None
            result = SolveResult(
                x=x_full, iterations=int(iterations),
                converged=bool(per_conv.all()),
                residual_norm=float(np.max(per_norm)),
                b_norm=float(np.max(b_norms_all)),
                residual_history=history,
                solver=self.name,
                preconditioner=ctx.preconditioner.name,
                events=self._loop_events(acct),
                setup_events=self._setup_events(acct),
                extra=extra,
                diagnosis=batch_diag,
            )
            if batch_diag is not None:
                return self._raise_or_return(batch_diag, result)
            return result
        finally:
            ctx.nrhs = saved_nrhs

    def _multi_extra(self, extra, nrhs, per_iter, per_conv, per_norm,
                     per_stag, per_diag, b_norms_all):
        """The per-column accounting block of a multi-RHS result."""
        extra["multi_rhs"] = int(nrhs)
        extra["per_rhs_iterations"] = [int(v) for v in per_iter]
        extra["per_rhs_converged"] = [bool(v) for v in per_conv]
        extra["per_rhs_residual_norm"] = [float(v) for v in per_norm]
        extra["per_rhs_b_norm"] = [float(v) for v in b_norms_all]
        zero_cols = [int(c) for c in np.flatnonzero(b_norms_all == 0.0)]
        if zero_cols:
            extra["zero_rhs_columns"] = zero_cols
            if len(zero_cols) == nrhs:
                extra["zero_rhs"] = True
        if per_stag.any():
            extra["stagnated"] = True
            extra["stagnated_columns"] = [
                int(c) for c in np.flatnonzero(per_stag)]
        if per_diag:
            extra["per_rhs_diagnosis"] = {
                str(col): diag.to_dict()
                for col, diag in sorted(per_diag.items())}
            extra["diagnosis"] = per_diag[min(per_diag)].to_dict()
        return extra

    def _compact_state(self, state, keep, old_width):
        """Drop finished columns from every entry of the loop state.

        Context vectors compact through :meth:`SolverContext.compact`
        (pure data movement); ``(old_width,)`` recurrence arrays (the
        batched rho/sigma/...) compact by indexing; true scalars pass
        through untouched.
        """
        ctx = self.context
        for name, value in list(state.items()):
            if name == "extra":
                continue
            if (isinstance(value, np.ndarray) and value.ndim == 1
                    and value.shape[0] == old_width):
                state[name] = value[keep]
            elif self._is_context_vector(value):
                state[name] = ctx.compact(value, keep)

    @staticmethod
    def _is_context_vector(value):
        """A multi-RHS context vector: BlockField or (ny, nx, k) array."""
        if hasattr(value, "locals_"):
            return True
        return isinstance(value, np.ndarray) and value.ndim == 3

    def _write_checkpoint_multi(self, policy, state, acct, b_norms_all,
                                active, iterations, checked_at, history,
                                res_norms, best, cwp, prev, growing,
                                x_full, per_iter, per_conv, per_norm,
                                per_stag, per_hist, per_diag):
        """Snapshot the complete multi-RHS loop state."""
        ctx = self.context
        n_act = int(active.size)
        arrays = {
            "x_full": x_full, "b_norms_all": b_norms_all,
            "active": np.asarray(active, dtype=np.int64),
            "per_iter": per_iter, "per_conv": per_conv,
            "per_norm": per_norm, "per_stag": per_stag,
            "res_norms": res_norms, "best": best, "cwp": cwp,
            "prev": prev, "growing": growing,
        }
        scalars = {}
        for name, value in state.items():
            if name == "extra":
                continue
            if value is None or isinstance(value, (bool, int, float)):
                scalars[name] = value
            elif isinstance(value, np.generic):
                scalars[name] = value.item()
            elif (isinstance(value, np.ndarray) and value.ndim == 1
                    and value.shape[0] == n_act):
                arrays[f"col_{name}"] = value
            else:
                arrays[f"vec_{name}"] = ctx.to_global(value)
        meta = {
            "solver": self.name,
            "preconditioner": ctx.preconditioner.name,
            "shape": [int(s) for s in ctx.mask.shape],
            "nrhs": int(b_norms_all.shape[0]),
            "b_digest": acct["b_digest"],
            "tol": self.tol,
            "check_freq": self.check_freq,
            "scalars": sanitize_meta(scalars),
            "extra": sanitize_meta(state.get("extra", {})),
            "solver_state": sanitize_meta(self._snapshot_solver_meta()),
            "precond_state": sanitize_meta(
                ctx.preconditioner.snapshot_meta()),
            "history": [[int(i), float(r)] for i, r in history],
            "per_history": [[[int(i), float(r)] for i, r in h]
                            for h in per_hist],
            "per_diagnosis": {str(c): d.to_dict()
                              for c, d in per_diag.items()},
            "loop": {"iterations": int(iterations),
                     "checked_at": int(checked_at)},
            "setup_events": _events_to_meta(self._setup_events(acct)),
            "loop_events": _events_to_meta(self._loop_events(acct)),
        }
        return policy.write(int(iterations), "solver_multi", arrays, meta)

    def _restore_checkpoint_multi(self, path, b_digest, nrhs):
        """Load and verify a multi-RHS snapshot."""
        arrays, meta = read_checkpoint(path, kind="solver_multi")
        ctx = self.context
        if meta.get("solver") != self.name:
            raise CheckpointError(
                f"checkpoint {path} belongs to solver "
                f"{meta.get('solver')!r}, not {self.name!r}")
        if tuple(meta.get("shape", ())) != tuple(ctx.mask.shape):
            raise CheckpointError(
                f"checkpoint {path} grid shape {meta.get('shape')} does "
                f"not match context {list(ctx.mask.shape)}")
        if int(meta.get("nrhs", -1)) != int(nrhs):
            raise CheckpointError(
                f"checkpoint {path} holds {meta.get('nrhs')} RHS "
                f"columns, this solve has {nrhs}")
        if meta.get("b_digest") != b_digest:
            raise CheckpointError(
                f"checkpoint {path} was written for a different "
                f"right-hand side batch -- resuming would not reproduce "
                f"the original solve")
        for knob in ("tol", "check_freq"):
            if meta.get(knob) != getattr(self, knob):
                raise CheckpointError(
                    f"checkpoint {path} was written with "
                    f"{knob}={meta.get(knob)!r}, this solver uses "
                    f"{getattr(self, knob)!r}; a resumed run would not "
                    f"be bit-identical")
        active = np.asarray(arrays["active"], dtype=np.intp)
        ctx.nrhs = int(active.size) if active.size else None
        state = {}
        for name, value in arrays.items():
            if name.startswith("vec_"):
                state[name[4:]] = ctx.from_global(value)
            elif name.startswith("col_"):
                state[name[4:]] = np.array(value, dtype=np.float64)
        state.update(meta.get("scalars", {}))
        state["extra"] = dict(meta.get("extra", {}))
        self._restore_solver_meta(meta.get("solver_state", {}))
        ctx.preconditioner.restore_meta(meta.get("precond_state") or {})
        loop = {
            "iterations": int(meta["loop"]["iterations"]),
            "checked_at": int(meta["loop"]["checked_at"]),
            "res_norms": np.array(arrays["res_norms"]),
            "best": np.array(arrays["best"]),
            "cwp": np.array(arrays["cwp"], dtype=np.int64),
            "prev": np.array(arrays["prev"]),
            "growing": np.array(arrays["growing"], dtype=np.int64),
        }
        acct = {
            "after_setup": ctx.ledger.snapshot(),
            "before_setup": None,
            "setup_events": _events_from_meta(meta["setup_events"]),
            "loop_base": _events_from_meta(meta["loop_events"]),
            "b_digest": b_digest,
        }
        outputs = (
            np.array(arrays["x_full"]),
            np.array(arrays["per_iter"], dtype=np.int64),
            np.array(arrays["per_conv"], dtype=bool),
            np.array(arrays["per_norm"]),
            np.array(arrays["per_stag"], dtype=bool),
        )
        per_hist = [[(int(i), float(r)) for i, r in h]
                    for h in meta.get("per_history", [])]
        while len(per_hist) < nrhs:
            per_hist.append([])
        per_diag = {int(c): _diagnosis_from_dict(d)
                    for c, d in meta.get("per_diagnosis", {}).items()}
        history = [(int(i), float(r)) for i, r in meta.get("history", [])]
        histories = (per_hist, per_diag, history)
        return (state, acct, np.array(arrays["b_norms_all"]), active,
                loop, outputs, histories)

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _setup(self, b, x):
        """Initialize solver state; returns a dict with at least
        ``x`` (current iterate) and ``r`` (current residual)."""

    @abc.abstractmethod
    def _iterate(self, state, k):
        """Perform iteration ``k`` in place on ``state``.

        May raise :class:`~repro.core.errors.BreakdownError`; the
        guarded loop converts it into a diagnosed failure carrying the
        partial result."""

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
