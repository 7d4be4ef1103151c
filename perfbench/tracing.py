"""In-memory span tracing around the program's layer boundaries.

The program itself carries no tracing, so a traced benchmark run
replaces selected public functions and methods with thin wrappers that
record a span per call -- name, start, end, parent span and operation
id -- and restores the originals afterwards.  Spans stay in memory and
are written out once, as Chrome trace-event JSON (loads in Perfetto),
when the run ends.

A layer's *self time* is its spans' duration minus the time covered by
their child spans, so the self times of all spans under one solve add
up to that solve's wall time exactly.

Synchronous calls nest through a per-thread span stack.  Coroutines
interleave on the event loop thread, so their spans are recorded flat
(no parent) and never enter the stack.
"""

import collections
import contextlib
import functools
import inspect
import json
import os
import threading
import time

#: Sentinel for "attribute was inherited, not defined on the owner".
_INHERITED = object()


class Span:
    """One recorded call; ``parent`` is the index of the caller's span."""

    __slots__ = ("name", "t0", "t1", "parent", "tid", "op", "args")

    def __init__(self, name, t0, parent, tid, op, args):
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.parent = parent
        self.tid = tid
        self.op = op
        self.args = args

    @property
    def duration(self):
        return self.t1 - self.t0


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        self.spans = []
        #: Operation id stamped on every span opened while it is set.
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.enabled = True

    # -- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, args, nest):
        stack = self._stack() if nest else ()
        parent = stack[-1] if stack else None
        span = Span(name, time.perf_counter(), parent,
                    threading.get_ident(), self.op, args)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if nest:
            stack.append(index)
        return span

    def _close(self, span, nest):
        span.t1 = time.perf_counter()
        if nest:
            self._stack().pop()

    def in_span(self, name):
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[i].name == name for i in self._stack())

    def span(self, name, **args):
        """Context manager recording one synchronous span (a no-op
        while the tracer is disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return _SpanContext(self, name, args)

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr, name, on_result=None, outermost=False):
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``on_result(span, result, args, kwargs)`` may annotate the span
        from the call's return value.  With ``outermost`` a call made
        while a span of the same name is already open on the thread is
        not recorded (the solver entry points call each other).
        """
        raw = owner.__dict__.get(attr, _INHERITED) \
            if isinstance(owner, type) else getattr(owner, attr)
        func = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await func(*args, **kwargs)
                span = tracer._open(name, {}, nest=False)
                try:
                    result = await func(*args, **kwargs)
                finally:
                    tracer._close(span, nest=False)
                if on_result is not None:
                    on_result(span, result, args, kwargs)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not tracer.enabled or (outermost
                                          and tracer.in_span(name)):
                    return func(*args, **kwargs)
                span = tracer._open(name, {}, nest=True)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._close(span, nest=True)
                if on_result is not None:
                    on_result(span, result, args, kwargs)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def unpatch(self):
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unpatch()
        return False

    # -- analysis ------------------------------------------------------
    def closed(self, start=0):
        return [s for s in self.spans[start:] if s.t1 is not None]

    def self_times(self, start=0):
        """``{index: self seconds}`` for closed spans from ``start``."""
        child = collections.defaultdict(float)
        spans = self.spans
        for i in range(start, len(spans)):
            s = spans[i]
            if s.t1 is not None and s.parent is not None:
                child[s.parent] += s.duration
        return {i: spans[i].duration - child[i]
                for i in range(start, len(spans))
                if spans[i].t1 is not None}

    def totals(self, start=0, roots=None):
        """Per-name ``(self seconds, calls)`` over spans from ``start``.

        With ``roots`` (a set of span names) only spans nested under a
        span of one of those names -- and the root spans themselves --
        are counted.
        """
        selfs = self.self_times(start)
        keep = None
        if roots is not None:
            keep = set()
            for i in sorted(selfs):
                s = self.spans[i]
                if s.name in roots or (s.parent is not None
                                       and s.parent in keep):
                    keep.add(i)
        out = collections.defaultdict(lambda: [0.0, 0])
        for i, seconds in selfs.items():
            if keep is not None and i not in keep:
                continue
            entry = out[self.spans[i].name]
            entry[0] += seconds
            entry[1] += 1
        return {name: (v[0], v[1]) for name, v in out.items()}

    def durations(self, name, start=0):
        """Wall durations of every closed span called ``name``."""
        return [s.duration for s in self.closed(start) if s.name == name]

    def arg_sum(self, name, key, start=0):
        """Sum of argument ``key`` over closed spans called ``name``."""
        return sum(s.args.get(key, 0) for s in self.closed(start)
                   if s.name == name)

    def write_chrome(self, path):
        """Write the spans as Chrome trace-event JSON (``X`` events)."""
        if not self.spans:
            return
        origin = min(s.t0 for s in self.spans)
        events = []
        for index, s in enumerate(self.spans):
            if s.t1 is None:
                continue
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": s.tid,
                "ts": (s.t0 - origin) * 1e6,
                "dur": (s.t1 - s.t0) * 1e6,
                "args": dict(s.args, id=index, parent=s.parent, op=s.op),
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


class _SpanContext:
    __slots__ = ("tracer", "name", "args", "span")

    def __init__(self, tracer, name, args):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self):
        self.span = self.tracer._open(self.name, self.args, nest=True)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span, nest=True)
        return False


def instrument(tracer):
    """Wrap every layer boundary the benchmark reports on.

    Lanczos spans carry the ``steps`` the estimate took and checkpoint
    write spans the ``bytes`` written, read from the return values.
    """
    from repro.core import checkpoint
    from repro.experiments import common
    from repro.parallel.resilience import ResilienceRuntime
    from repro.parallel.vm import VirtualMachine
    from repro.precond import evp
    from repro.precond.diagonal import DiagonalPreconditioner
    from repro.precond.evp import EVPBlockPreconditioner
    from repro.service import server as service_server
    from repro.service.batching import Coalescer
    from repro.service.executor import ServiceExecutor
    from repro.solvers import base as solver_base
    from repro.solvers import spectral
    from repro.solvers.context import (DistributedContext, SerialContext,
                                       SolverContext)

    # grid and preconditioner construction
    tracer.wrap(common, "get_cached_config", "grid.build")
    tracer.wrap(evp, "evp_for_config", "precond.build")
    tracer.wrap(common, "get_cached_preconditioner", "precond.build")
    tracer.wrap(spectral, "estimate_eigenbounds", "lanczos",
                on_result=_lanczos_steps)
    # the guarded loop (outermost solver entry point only)
    for cls in (solver_base.IterativeSolver, spectral.SpectralBoundedSolver):
        tracer.wrap(cls, "solve", "solve", outermost=True)
    # solver context primitives
    tracer.wrap(SolverContext, "precond", "ctx.precond")
    for cls in (DistributedContext, SerialContext):
        tracer.wrap(cls, "matvec", "ctx.matvec")
        for attr in ("axpy", "xpay", "combine", "scale"):
            tracer.wrap(cls, attr, "ctx.update")
        for attr in ("dot", "dot_pair", "dot_block"):
            tracer.wrap(cls, attr, "ctx.reduce")
    # preconditioner applies
    for cls in (EVPBlockPreconditioner, DiagonalPreconditioner):
        for attr in ("apply_global", "apply_block", "apply_stack"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "precond.apply")
    # virtual machine: halo exchange and global reductions
    tracer.wrap(VirtualMachine, "exchange", "vm.exchange")
    for attr in ("global_dot", "global_dot_block", "global_dot_pair"):
        tracer.wrap(VirtualMachine, attr, "vm.reduce")
    # protection: resilience runtime and checkpoint I/O
    for attr in ("capture", "verify_and_capture", "pre_exchange",
                 "post_exchange", "on_matvec", "crosscheck_residual",
                 "rollback"):
        tracer.wrap(ResilienceRuntime, attr, "resilience")
    tracer.wrap(checkpoint.CheckpointPolicy, "write", "checkpoint.write",
                on_result=_checkpoint_bytes)
    tracer.wrap(solver_base, "read_checkpoint", "checkpoint.read")
    # service: request handling, coalescing, execution, encoding, HTTP
    tracer.wrap(service_server.SolverService, "handle_solve",
                "service.handle")
    tracer.wrap(Coalescer, "submit", "service.coalesce",
                on_result=_submitted_item)
    tracer.wrap(service_server.SolverService, "_run_batch", "service.batch",
                on_result=_batch_items)
    tracer.wrap(ServiceExecutor, "run", "service.execute")
    tracer.wrap(service_server, "solve_result_to_doc", "service.encode")
    tracer.wrap(service_server.SolverService, "_route", "service.http",
                on_result=_route_target)
    return tracer


def _lanczos_steps(span, result, args, kwargs):
    # estimate_eigenbounds returns (nu, mu, info)
    span.args["steps"] = result[2].get("steps", 0)


def _checkpoint_bytes(span, result, args, kwargs):
    try:
        span.args["bytes"] = os.path.getsize(result)
    except OSError:
        span.args["bytes"] = 0


def _submitted_item(span, result, args, kwargs):
    # submit(self, key, item)
    span.args["item"] = id(args[2])


def _batch_items(span, result, args, kwargs):
    # _run_batch(self, key, reqs)
    span.args["items"] = [id(req) for req in args[2]]


def _route_target(span, result, args, kwargs):
    # _route(self, writer, method, target, body)
    span.args["method"] = args[2]
    span.args["target"] = args[3]
