"""Benchmark: the solver service with vs without request coalescing.

Drives a deterministic load generator -- N concurrent clients, a
configurable dedupe ratio (byte-identical repeat requests) and a
batch-compatibility mix (a slice of requests uses a different
tolerance, landing in a separate coalescing bucket) -- against two
freshly started ``repro serve`` processes: a **baseline** with
``--max-batch 1`` (every request solves alone; the no-coalescing
reference) and a **coalesced** server with the real batching window.
Each server gets its own empty cache directory, so the comparison is
pure scheduling.

Both servers run the **batched** execution engine on a fine
decomposition (``--engine batched --blocks 8,8``) -- the regime the
coalescer is built for, where per-iteration fixed costs (block-loop
dispatch, halo exchanges, convergence reductions) dominate and a
multi-RHS batch amortizes them across columns.  The per-column
iterates are bit-identical to standalone solves on the same engine
(the PR-6 guarantee), which is what makes the solo-vs-coalesced
comparison below meaningful.

Writes ``BENCH_service.json`` with p50/p99 latency, throughput, the
coalesced-batch size histogram and the dedupe hit ratio.  On every
run -- gated or not -- each coalesced response is asserted
**bit-identical** (solution bytes, iterations, norms, convergence
flag) to the baseline response of the same request, i.e. to a
standalone solve through the same service path.

CI usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick
    PYTHONPATH=src python benchmarks/bench_service.py --quick --check

``--check`` exits nonzero when coalesced throughput falls below the
floor over the baseline (2.0x at 16 clients full, 1.5x quick), or
regresses below ``--regression-fraction`` (default 0.7) of the
committed baseline's speedup when one is comparable.
"""

import argparse
import base64
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.common import (  # noqa: E402
    get_cached_config,
    reference_rhs,
)
from repro.service import READY_PREFIX, ServiceClient  # noqa: E402

#: Minimum coalesced-over-baseline throughput ratio.
SPEEDUP_FLOOR = {"full": 2.0, "quick": 1.5}


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` subprocess bound to a fresh port + cache."""

    def __init__(self, root, max_batch, max_wait_ms, shards=4,
                 engine="batched", blocks="8,8"):
        self.cache_dir = tempfile.mkdtemp(prefix="bench-service-cache-")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", self.cache_dir,
             "--shards", str(shards),
             "--engine", engine,
             "--blocks", blocks,
             "--max-batch", str(max_batch),
             "--max-wait-ms", str(max_wait_ms)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        line = self.proc.stdout.readline().strip()
        if not line.startswith(READY_PREFIX):
            raise RuntimeError(f"service failed to start: {line!r}")
        self.port = int(line.rsplit("port=", 1)[1])
        self.client = ServiceClient(port=self.port, timeout=300.0)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------------
# deterministic load plan
# ----------------------------------------------------------------------
def build_plan(clients, per_client, dedupe_ratio, mix_ratio, tol_main,
               tol_alt, seed):
    """Every request document, pre-encoded, per client.

    Deterministic: request ``r`` of client ``c`` is a fixed function
    of ``seed``.  A ``dedupe_ratio`` slice of requests draws from a
    small shared RHS pool (byte-identical across clients -> dedupe
    and single-flight); a ``mix_ratio`` slice uses the alternate
    tolerance (a different coalescing bucket -- the compatibility
    mix).  Returns ``plan[c][r] = (request_id, doc)``.
    """
    config = get_cached_config("test")
    base = reference_rhs(config)
    rng = np.random.default_rng(seed)
    shared_pool = [base + rng.standard_normal(config.shape) * config.mask
                   for _ in range(4)]
    client = ServiceClient(port=0)  # only for make_request
    plan = []
    for c in range(clients):
        crng = np.random.default_rng([seed, c])
        docs = []
        for r in range(per_client):
            roll = crng.uniform()
            if roll < dedupe_ratio:
                rhs = shared_pool[int(crng.integers(len(shared_pool)))]
                kind = "shared"
            else:
                rhs = base + crng.standard_normal(config.shape) \
                    * config.mask
                kind = "unique"
            tol = tol_alt if crng.uniform() < mix_ratio else tol_main
            doc = client.make_request(
                config="test", solver="pcsi", precond="diagonal",
                tol=tol, max_iterations=4000,
                rhs=np.ascontiguousarray(rhs))
            request_id = f"c{c:02d}r{r:03d}:{kind}:tol={tol:g}"
            docs.append((request_id, doc))
        plan.append(docs)
    return plan


def run_load(server, plan):
    """Fire the plan: one thread per client, requests in order.

    Returns (responses by request_id, per-request latencies, wall
    seconds).
    """
    responses = {}
    latencies = []
    lock = threading.Lock()
    errors = []

    def client_main(docs):
        for request_id, doc in docs:
            t0 = time.perf_counter()
            try:
                response = server.client.solve(doc)
            except Exception as exc:  # noqa: BLE001 - collected
                with lock:
                    errors.append(f"{request_id}: {exc}")
                return
            dt = time.perf_counter() - t0
            with lock:
                responses[request_id] = response
                latencies.append(dt)

    threads = [threading.Thread(target=client_main, args=(docs,))
               for docs in plan]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise RuntimeError("load generator failures:\n  "
                           + "\n  ".join(errors[:10]))
    return responses, latencies, wall


def assert_bit_exact(baseline, coalesced):
    """Every coalesced response must match its baseline (solo) twin.

    Compares the solution bytes and the per-column scalar truth.  Runs
    on every benchmark invocation -- this is the correctness half of
    the coalescing contract.
    """
    checked = 0
    for request_id, solo in baseline.items():
        multi = coalesced[request_id]
        a, b = solo["result"], multi["result"]
        if base64.b64decode(a["x"]["data"]) != \
                base64.b64decode(b["x"]["data"]):
            raise AssertionError(
                f"{request_id}: coalesced solution bytes differ from "
                f"the standalone solve")
        for field in ("iterations", "converged", "residual_norm",
                      "b_norm"):
            if a[field] != b[field]:
                raise AssertionError(
                    f"{request_id}: coalesced {field} {b[field]!r} != "
                    f"standalone {a[field]!r}")
        checked += 1
    return checked


def summarize(responses, latencies, wall, stats):
    lat = np.sort(np.asarray(latencies))
    service = stats["service"]
    dedup = (service["dedup_inflight"] + service["dedup_memo"])
    coalesced = sum(1 for r in responses.values() if r["coalesced"])
    return {
        "requests": len(latencies),
        "wall_s": wall,
        "throughput_rps": len(latencies) / wall,
        "latency_p50_ms": float(lat[int(0.50 * (len(lat) - 1))]) * 1e3,
        "latency_p99_ms": float(lat[int(0.99 * (len(lat) - 1))]) * 1e3,
        "latency_mean_ms": float(lat.mean()) * 1e3,
        "coalesced_responses": coalesced,
        "dedupe_hits": dedup,
        "dedupe_hit_ratio": dedup / max(1, service["requests"]),
        "batch_size_histogram":
            stats["coalescer"]["batch_size_histogram"],
        "mean_batch_size": stats["coalescer"]["mean_batch_size"],
    }


def run_gate(report, baseline_path, mode, regression_fraction):
    """The CI perf gate.  Returns a list of failure strings."""
    failures = []
    floor = SPEEDUP_FLOOR[mode]
    speedup = report["coalescing_speedup"]
    if speedup < floor:
        failures.append(
            f"coalesced throughput {speedup:.2f}x baseline is below "
            f"the {floor:.1f}x floor at {report['clients']} clients")
    if baseline_path.exists():
        committed = json.loads(baseline_path.read_text())
        comparable = committed.get("quick") == report["quick"] \
            and committed.get("clients") == report["clients"]
        base = committed.get("coalescing_speedup")
        if comparable and base:
            if speedup < regression_fraction * base:
                failures.append(
                    f"coalescing speedup regressed: {speedup:.2f}x vs "
                    f"committed {base:.2f}x "
                    f"(< {regression_fraction:.0%})")
        else:
            print(f"[bench_service] baseline {baseline_path} is not "
                  f"comparable (different mode/clients); floor check "
                  f"only")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer clients and requests (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the coalescing-throughput floor "
                             "and the committed-baseline regression "
                             "bound; exit 1 on failure")
    parser.add_argument("--regression-fraction", type=float, default=0.7)
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent clients (default 16, quick 8)")
    parser.add_argument("--per-client", type=int, default=None,
                        help="requests per client (default 8, quick 4)")
    parser.add_argument("--dedupe-ratio", type=float, default=0.25,
                        help="fraction of requests drawing from the "
                             "shared byte-identical pool (default 0.25)")
    parser.add_argument("--mix-ratio", type=float, default=0.2,
                        help="fraction of requests using the alternate "
                             "tolerance bucket (default 0.2)")
    parser.add_argument("--max-batch", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=25.0)
    parser.add_argument("--engine", default="batched",
                        choices=("serial", "batched"),
                        help="execution engine both servers run "
                             "(default: batched -- the amortizing "
                             "regime the coalescer targets)")
    parser.add_argument("--blocks", default="8,8",
                        help="decomposition 'by,bx' for the engine "
                             "(default: 8,8)")
    parser.add_argument("--seed", type=int, default=20151115)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default "
                             "BENCH_service.json at the repo root; "
                             "BENCH_service_quick.json with --quick)")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    baseline_path = root / "BENCH_service.json"
    if args.out is not None:
        out_path = Path(args.out)
    else:
        out_path = root / ("BENCH_service_quick.json" if args.quick
                           else "BENCH_service.json")

    clients = args.clients or (8 if args.quick else 16)
    per_client = args.per_client or (4 if args.quick else 8)

    print(f"[bench_service] building plan: {clients} clients x "
          f"{per_client} requests, dedupe {args.dedupe_ratio:.0%}, "
          f"mix {args.mix_ratio:.0%}", flush=True)
    plan = build_plan(clients, per_client, args.dedupe_ratio,
                      args.mix_ratio, tol_main=1e-8, tol_alt=1e-6,
                      seed=args.seed)

    runs = {}
    for label, max_batch in (("baseline", 1), ("coalesced",
                                               args.max_batch)):
        print(f"[bench_service] {label}: starting server "
              f"(max-batch={max_batch}) ...", flush=True)
        server = ServerProcess(root, max_batch, args.max_wait_ms,
                               engine=args.engine, blocks=args.blocks)
        try:
            responses, latencies, wall = run_load(server, plan)
            stats = server.client.stats()
        finally:
            server.stop()
        runs[label] = (responses,
                       summarize(responses, latencies, wall, stats))
        s = runs[label][1]
        print(f"[bench_service] {label}: {s['requests']} requests in "
              f"{s['wall_s']:.2f}s -> {s['throughput_rps']:.1f} req/s, "
              f"p50 {s['latency_p50_ms']:.1f}ms, "
              f"p99 {s['latency_p99_ms']:.1f}ms, mean batch "
              f"{s['mean_batch_size']:.2f}", flush=True)

    checked = assert_bit_exact(runs["baseline"][0], runs["coalesced"][0])
    print(f"[bench_service] bit-exactness: {checked} coalesced "
          f"responses identical to standalone solves", flush=True)

    speedup = (runs["coalesced"][1]["throughput_rps"]
               / runs["baseline"][1]["throughput_rps"])
    report = {
        "benchmark": "service",
        "quick": bool(args.quick),
        "clients": clients,
        "per_client": per_client,
        "dedupe_ratio": args.dedupe_ratio,
        "mix_ratio": args.mix_ratio,
        "max_batch": args.max_batch,
        "max_wait_ms": args.max_wait_ms,
        "engine": args.engine,
        "blocks": args.blocks,
        "seed": args.seed,
        "bit_exact_responses": checked,
        "coalescing_speedup": speedup,
        "baseline": runs["baseline"][1],
        "coalesced": runs["coalesced"][1],
    }
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                        + "\n")
    print(f"[bench_service] coalescing speedup: {speedup:.2f}x")
    print(f"[bench_service] wrote {out_path}")

    if args.check:
        mode = "quick" if args.quick else "full"
        failures = run_gate(report, baseline_path, mode,
                            args.regression_fraction)
        if failures:
            for failure in failures:
                print(f"[bench_service] GATE FAILED: {failure}",
                      file=sys.stderr)
            return 1
        print("[bench_service] perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
