"""Open-loop traffic against ``repro serve`` at its defaults.

The server runs the serial engine with pcsi/diagonal, ``max-batch 8``
and ``max-wait-ms 25``, started with ``--jobs 0``, ``--no-tuned`` and a
fresh ``--cache-dir``.  Requests go out on a fixed schedule (the rate
and the latency limit are command arguments fixed in BENCHMARK.json)
through ``POST /jobs``, one connection at a time.  A second thread
follows each job's NDJSON stream in submission order; latency runs from
the time a request was *due*, so a stall is charged to every request
behind it.  A request that fails, misses the oracle, or is still
running one latency limit after the last request was due (backlog)
counts as failed.

The seeded mix has unique right-hand sides (solves plus cache writes),
a share of byte-identical repeats (memo/dedupe reads) and a share at an
alternate tolerance (a second coalescing bucket).  Every response is
checked bit-identical to an in-process ``measure_solver`` of the same
request and against the direct-solve oracle.

An untraced run measures a ``repro serve`` subprocess.  A traced run
hosts the service in this process instead, so the coalescer, executor,
encoder and HTTP handler can be wrapped; it sends the first half of
the schedule untraced and the second half traced, and reports the
latency difference as the tracing overhead.
"""

import asyncio
import collections
import hashlib
import http.client
import json
import os
import queue
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from common import (another_setup, array_bytes, environment, median,
                    percentile, process_peak_rss_mb)
from oracle import DirectOracle

CONFIG = "test"
TOL_MAIN = 1.0e-10
TOL_ALT = 1.0e-8
MAX_ITERATIONS = 2000
#: Share of requests that repeat an earlier request byte for byte.
REPEAT_SHARE = 0.2
#: Share of fresh requests at the alternate tolerance.
ALT_TOL_SHARE = 0.2
#: A generator that falls this far behind its schedule voids the run.
LAG_LIMIT_MS = 250.0
#: Longest wait for a job that is still running after the schedule.
DRAIN_TIMEOUT_S = 60.0


class Request:
    """One scheduled request and what became of it."""

    __slots__ = ("index", "body", "rhs", "tol", "due", "sent", "job",
                 "done", "status", "response")

    def __init__(self, index, body, rhs, tol):
        self.index = index
        self.body = body
        self.rhs = rhs
        self.tol = tol
        self.due = self.sent = self.done = None
        self.job = self.status = self.response = None


def build_plan(seed, rate, seconds):
    """The seeded request schedule: ``rate * seconds`` documents."""
    from repro.experiments.common import get_cached_config, reference_rhs
    from repro.reporting.serialize import encode_array

    config = get_cached_config(CONFIG)
    base = reference_rhs(config)
    rng = np.random.default_rng(seed)
    plan = []
    fresh = []
    for index in range(max(1, int(round(rate * seconds)))):
        if fresh and rng.uniform() < REPEAT_SHARE:
            src = fresh[int(rng.integers(len(fresh)))]
            plan.append(Request(index, src.body, src.rhs, src.tol))
            continue
        rhs = base + rng.standard_normal(config.shape) * config.mask
        tol = TOL_ALT if rng.uniform() < ALT_TOL_SHARE else TOL_MAIN
        doc = {"config": CONFIG, "tol": tol,
               "max_iterations": MAX_ITERATIONS, "rhs": encode_array(rhs)}
        req = Request(index, json.dumps(doc).encode("utf-8"), rhs, tol)
        fresh.append(req)
        plan.append(req)
    return plan


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def _http(port, method, path, body=None, timeout=DRAIN_TIMEOUT_S):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def run_open_loop(port, plan, rate, clock=time.perf_counter):
    """Send ``plan`` on schedule; returns the generator's max lag (s).

    The first request is due now and request ``k`` after it is due
    ``k / rate`` seconds later.  Fills each request's ``due``, ``sent``,
    ``job``, ``done`` and ``status`` (the job's terminal event, or an
    HTTP error).
    """
    follow = queue.Queue()

    def follower():
        while True:
            req = follow.get()
            if req is None:
                return
            try:
                status, body = _http(port, "GET", f"/jobs/{req.job}/stream")
                events = [json.loads(line) for line in body.splitlines()
                          if line.strip()]
                req.status = events[-1]["event"] if status == 200 \
                    else f"http {status}"
            except (OSError, ValueError, IndexError) as err:
                req.status = f"stream error {err!r}"
            req.done = clock()

    thread = threading.Thread(target=follower, name="perfbench-follow")
    thread.start()
    lag = 0.0
    try:
        start = clock() + 0.05
        for k, req in enumerate(plan):
            req.due = start + k / rate
            wait = req.due - clock()
            if wait > 0:
                time.sleep(wait)
            req.sent = clock()
            lag = max(lag, req.sent - req.due)
            try:
                status, body = _http(port, "POST", "/jobs", req.body)
            except OSError as err:
                req.status = f"submit error {err!r}"
                continue
            if status != 202:
                req.status = f"http {status}"
                continue
            req.job = json.loads(body)["job"]
            follow.put(req)
    finally:
        follow.put(None)
        thread.join(DRAIN_TIMEOUT_S + len(plan))
    if thread.is_alive():
        raise RuntimeError("stream follower did not finish")
    return lag


def fetch_results(port, plan):
    for req in plan:
        if req.status != "done":
            continue
        status, body = _http(port, "GET", f"/jobs/{req.job}/result")
        if status == 200:
            req.response = json.loads(body)
        else:
            req.status = f"result http {status}"


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` at its defaults in a subprocess."""

    def __init__(self, root, cache_dir):
        from repro.service import READY_PREFIX

        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   REPRO_CACHE_DIR=cache_dir)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "0", "--no-tuned", "--cache-dir", cache_dir],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    DRAIN_TIMEOUT_S)
        line = self.proc.stdout.readline().strip() if ready else ""
        self.ready_s = time.perf_counter() - t0
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError(f"service failed to start: {line!r}")
        self.port = int(line.rsplit("port=", 1)[1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class InProcessServer:
    """The same service hosted on a thread of this process."""

    def __init__(self, cache_dir):
        from repro.core.cache import configure_cache
        from repro.service import SolverService

        configure_cache(cache_dir=cache_dir)
        t0 = time.perf_counter()
        self.service = SolverService(port=0, jobs=0, tuned=False)
        self._loop = None
        ready = threading.Event()

        def announce(message, flush=True):
            ready.set()

        async def main():
            self._loop = asyncio.get_running_loop()
            await self.service.run(announce=announce,
                                   install_signals=False)

        self._thread = threading.Thread(target=asyncio.run, args=(main(),),
                                        name="perfbench-service")
        self._thread.start()
        if not ready.wait(60):
            raise RuntimeError("in-process service failed to start")
        self.ready_s = time.perf_counter() - t0
        self.port = self.service.port

    def stop(self):
        self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(DRAIN_TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("in-process service did not stop")


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def check_responses(plan):
    """Count responses that differ from an in-process solve or miss the
    oracle; returns ``(failed request indices, oracle)``."""
    from repro.core.cache import ArtifactCache
    from repro.experiments.common import get_cached_config, measure_solver
    from repro.reporting.serialize import decode_array

    config = get_cached_config(CONFIG)
    oracle = DirectOracle(config.stencil)
    reference_cache = ArtifactCache(cache_dir=None)
    failed = set()
    for req in plan:
        doc = req.response
        if doc is None:
            failed.add(req.index)
            continue
        got = doc["result"]
        want = measure_solver(config, solver=doc["solver"],
                              precond=doc["precond"], tol=req.tol,
                              max_iterations=MAX_ITERATIONS, rhs=req.rhs,
                              cache=reference_cache)
        x = np.asarray(decode_array(got["x"]))
        same = (x.tobytes() == np.ascontiguousarray(want.x).tobytes()
                and got["iterations"] == want.iterations
                and got["converged"] == want.converged
                and got["residual_norm"] == want.residual_norm)
        if not (same and got["converged"]
                and oracle.check(req.rhs, x, req.tol)):
            failed.add(req.index)
    return failed, oracle


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _warm_up(port):
    """One request outside the schedule: Lanczos bounds and grid caches
    fill before timing, as on a server that has been up a while."""
    from repro.experiments.common import get_cached_config, reference_rhs
    from repro.reporting.serialize import encode_array

    config = get_cached_config(CONFIG)
    rhs = 2.0 * reference_rhs(config)
    body = json.dumps({"config": CONFIG, "tol": TOL_MAIN,
                       "rhs": encode_array(rhs)}).encode("utf-8")
    status, _ = _http(port, "POST", "/solve", body)
    if status != 200:
        raise RuntimeError(f"warm-up request failed with HTTP {status}")


def _score(plan, limit_s, lag, failed):
    latencies = [r.done - r.due for r in plan if r.done is not None]
    end = plan[-1].due
    late = {r.index for r in plan
            if r.done is None or r.done > end + limit_s}
    bad = failed | late | {r.index for r in plan if r.status != "done"}
    if lag * 1e3 > LAG_LIMIT_MS:
        bad = {r.index for r in plan}
    good = [r for r in plan if r.index not in bad
            and r.done - r.due <= limit_s]
    last = max((r.done for r in plan if r.done is not None),
               default=end)
    iterations = [r.response["result"]["iterations"] for r in plan
                  if r.response is not None]
    return {
        "latencies": latencies,
        "bad": bad,
        "late": late,
        "goodput": len(good) / max(last - plan[0].due, 1e-9),
        "iterations": float(np.mean(iterations)) if iterations else 0.0,
    }


def run(seed, seconds, trace, tracer, workdir, root, rate, limit_ms):
    """Run the service workload; returns the result pieces (see run.py)."""
    from repro.kernels import resolve_kernels

    limit_s = limit_ms / 1e3
    plan = build_plan(seed, rate, seconds)

    setups = []
    if trace:
        server = InProcessServer(os.path.join(workdir, "cache-0"))
        setups.append(server.ready_s)
    else:
        server = None
        while another_setup(setups):
            if server is not None:
                server.stop()
            server = ServerProcess(root, os.path.join(
                workdir, f"cache-{len(setups)}"))
            setups.append(server.ready_s)
    try:
        warm_start = len(tracer.spans)
        _warm_up(server.port)
        # Set-up layers run during the warm-up request: inclusive time.
        warm_layers = {name: sum(tracer.durations(name, warm_start))
                       for name in ("grid.build", "precond.build",
                                    "lanczos")}
        warm_layers["lanczos.steps"] = tracer.arg_sum("lanczos", "steps",
                                                      warm_start)
        if trace:
            half = len(plan) // 2
            tracer.enabled = False
            lag = run_open_loop(server.port, plan[:half], rate)
            tracer.enabled = True
            traced_start = len(tracer.spans)
            lag = max(lag, run_open_loop(server.port, plan[half:], rate))
            tracer.enabled = False
        else:
            lag = run_open_loop(server.port, plan, rate)
        fetch_results(server.port, plan)
        status, body = _http(server.port, "GET", "/stats")
        stats = json.loads(body)
        rss = (0.0 if trace else process_peak_rss_mb(server.proc.pid))
    finally:
        server.stop()

    failed, oracle = check_responses(plan)
    scored = _score(plan, limit_s, lag, failed)
    lat = scored["latencies"]
    attempted = len(plan)
    out = {
        "attempted": attempted,
        "failed": len(scored["bad"]),
        "e2e": {
            "setup_s": median(setups),
            "op_s_p50": median(lat),
            "iterations": scored["iterations"],
            "peak_rss_mb": rss,
            "ok_frac": (attempted - len(scored["bad"])) / attempted,
        },
        "details": {
            "samples": {"setup_s": len(setups), "latency": len(lat)},
            "rate_rps": rate,
            "latency_limit_ms": limit_ms,
            "goodput_rps": scored["goodput"],
            "latency_ms": {"p50": percentile(lat, 50) * 1e3,
                           "p90": percentile(lat, 90) * 1e3,
                           "p99": percentile(lat, 99) * 1e3},
            "lag_ms_max": lag * 1e3,
            "lag_limit_ms": LAG_LIMIT_MS,
            "backlog": len(scored["late"]),
            "plan_sha256": hashlib.sha256(
                b"".join(r.body for r in plan)).hexdigest(),
            "setup_s": setups,
            "batch_size_histogram":
                stats["coalescer"]["batch_size_histogram"],
            "environment": environment(
                engine="serial", kernels=resolve_kernels(None).name,
                grid=CONFIG),
            "oracle": {"worst_residual": oracle.worst_residual,
                       "worst_error": oracle.worst_error},
        },
    }
    if trace:
        out["layers"] = _layers(tracer, plan, half, traced_start,
                                warm_layers, stats, lag, scored)
    return out


def _layers(tracer, plan, half, start, warm_layers, stats, lag, scored):
    traced = plan[half:]
    plain = plan[:half]
    n = max(1, len(traced))

    def latencies(reqs):
        return [r.done - r.due for r in reqs if r.done is not None]

    spans = tracer.closed(start)
    # Items are matched by object id, which the interpreter may reuse
    # once a request is gone: take the latest submission before the
    # batch started.
    submits = collections.defaultdict(list)
    for s in spans:
        if s.name == "service.coalesce":
            submits[s.args.get("item")].append(s.t0)
    waits, sizes = [], []
    for s in spans:
        if s.name == "service.batch":
            items = s.args.get("items", ())
            sizes.append(len(items))
            for item in items:
                before = [t for t in submits.get(item, ()) if t <= s.t0]
                if before:
                    waits.append(s.t0 - max(before))

    def p50_ms(span_name, keep=lambda s: True):
        return median([s.duration for s in spans
                       if s.name == span_name and keep(s)]) * 1e3

    totals = tracer.totals(start, roots={"solve"})

    def per_op(span_name, index=0):
        return totals.get(span_name, (0.0, 0))[index] / n

    executed = sum(s.duration for s in spans
                   if s.name == "service.execute")
    counted = _counted_layers(traced)
    service = stats["service"]
    cache = stats["cache"]
    layers = {
        "grid.build_s": warm_layers["grid.build"],
        "precond.build_s": warm_layers["precond.build"],
        "lanczos.s": warm_layers["lanczos"],
        "lanczos.steps": warm_layers["lanczos.steps"],
        "precond.apply_s": per_op("precond.apply"),
        "precond.apply_calls": per_op("precond.apply", 1),
        "loop.self_s": per_op("solve"),
        "loop.wall_s": sum(tracer.durations("solve", start)) / n,
        "ctx.matvec_s": per_op("ctx.matvec"),
        "ctx.matvec_calls": per_op("ctx.matvec", 1),
        "ctx.update_s": per_op("ctx.update"),
        "ctx.update_calls": per_op("ctx.update", 1),
        "ctx.precond_s": per_op("ctx.precond"),
        "ctx.reduce_s": per_op("ctx.reduce"),
        "service.queue_wait_ms_p50": median(waits) * 1e3,
        "service.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "service.execute_ms_p50": p50_ms("service.execute"),
        "service.encode_ms_p50": p50_ms("service.encode"),
        "service.http_ms_p50": p50_ms(
            "service.http",
            lambda s: not str(s.args.get("target", "")).endswith("/stream")),
        "service.dedupe_ratio": ((service["dedup_inflight"]
                                  + service["dedup_memo"])
                                 / max(1, service["requests"])),
        "cache.hit_ratio": float(cache["hit_ratio"]),
        "cache.stores": float(cache["writes"]),
        "cache.bytes_written": float(cache["disk_bytes"]),
        "loadgen.goodput_rps": scored["goodput"],
        "loadgen.lag_ms_max": lag * 1e3,
        "loadgen.sent": float(sum(r.sent is not None for r in plan)),
        "loadgen.completed": float(sum(r.status == "done" for r in plan)),
        "trace.overhead_frac": (median(latencies(traced))
                                / median(latencies(plain)) - 1.0),
        "trace.accounted_frac": (sum(tracer.durations("solve", start))
                                 / executed if executed else 0.0),
        "trace.spans": float(len(tracer.spans)),
    }
    layers.update(counted)
    return layers


def _counted_layers(reqs):
    """Exact event counts, modeled loop time and computed sizes per
    request, from the responses' event ledgers."""
    from repro.experiments.common import get_cached_config
    from repro.operators.stencil_op import MATVEC_FLOPS_PER_POINT
    from repro.perfmodel.machines import YELLOWSTONE
    from repro.perfmodel.timing import event_totals, solve_time
    from repro.precond import make_preconditioner
    from repro.reporting.serialize import solve_result_from_doc

    keys = ("halo_exchanges", "halo_words", "allreduces",
            "allreduce_words", "flops")
    sums = dict.fromkeys(keys, 0.0)
    modeled = 0.0
    answered = [r for r in reqs if r.response is not None]
    for req in answered:
        result = solve_result_from_doc(req.response["result"])
        totals = event_totals(result.events)
        for key in keys:
            sums[key] += getattr(totals, key)
        # The serial engine is one rank: communication is free.
        modeled += solve_time(result, YELLOWSTONE, 1).total
    n = max(1, len(answered))
    layers = {f"ledger.{key}": value / n for key, value in sums.items()}
    layers["perfmodel.modeled_loop_s.yellowstone"] = modeled / n

    # Computed sizes: the serial context works on the whole grid as one
    # block with a one-point halo.
    config = get_cached_config(CONFIG)
    ny, nx = config.shape
    points = ny * nx
    matvec_bytes = 8 * ((ny + 2) * (nx + 2) + 10 * points)
    layers["kernels.bytes_per_matvec"] = float(matvec_bytes)
    layers["kernels.flops_per_byte"] = (MATVEC_FLOPS_PER_POINT * points
                                        / matvec_bytes)
    pre = make_preconditioner("diagonal", config.stencil)
    layers["kernels.bytes_per_precond_apply"] = float(
        array_bytes(pre) + 16 * points)
    return layers
