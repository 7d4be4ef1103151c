"""Chaos smoke: kill the pipeline, corrupt its cache, finish anyway.

The CI ``chaos-smoke`` job's driver.  It stages the full recovery
story end to end, the way an unlucky operator would live it:

1. **crash** -- run a two-step plan with an injected worker crash
   under ``FailurePolicy(mode="continue")``, so the run *loses* a step
   (recorded in the manifest) instead of retrying it;
2. **corrupt** -- flip bytes inside artifact-cache entries the warmup
   wave persisted, then audit with ``ArtifactCache.verify(repair=True)``
   (the machinery behind ``repro cache verify --repair``), which must
   quarantine the damage;
3. **resume** -- re-run with ``resume=True``: the completed step is
   skipped, the lost step re-executes, the quarantined artifacts
   rebuild, and the run completes with zero failures;
4. **verify** -- resumed measurements must equal a clean reference
   run's, and a final read-only ``verify()`` must find nothing corrupt.

Two further stages take the chaos *inside* a running solve
(the in-solve resilience layer):

5. **rank-death** -- a rank's block state is wiped mid-solve; the
   buddy replica restores it and the solve re-converges to the
   undisturbed run's exact bits;
6. **bitflip** -- a flipped exponent bit corrupts the iterate; the
   ABFT checks detect it, the loop rolls back to the last verified
   replica and re-converges, again bit-identically.

Writes a JSON report plus the run's ``manifest.json``, quarantine
listing, and the in-solve runs' resilience ledgers and recovery
diagnoses (uploaded as CI artifacts) and exits non-zero if any stage
breaks the contract.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py --out-dir chaos-artifacts
"""

import argparse
import json
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.cache import ArtifactCache, get_cache, set_cache  # noqa: E402
from repro.grid import test_config as make_test_config  # noqa: E402
from repro.operators import apply_stencil  # noqa: E402
from repro.parallel import (  # noqa: E402
    CacheCorruptFault,
    VirtualMachine,
    WorkerCrashFault,
    decompose,
    make_fault,
)
from repro.precond import make_preconditioner  # noqa: E402
from repro.reporting import MANIFEST_NAME, FailurePolicy, run_all  # noqa: E402
from repro.solvers import ChronGearSolver, DistributedContext  # noqa: E402


def _in_solve_chaos(out_dir):
    """Stages 5+6: chaos inside the solve loop, per fault class.

    Returns ``{stage_name: fields}``; writes the resilience ledgers
    and recovery diagnoses next to the report for the CI upload.
    """
    config = make_test_config(32, 48, seed=7)
    decomp = decompose(config.ny, config.nx, 4, 4, mask=config.mask)
    rng = np.random.default_rng(1)
    b = apply_stencil(config.stencil,
                      rng.standard_normal(config.shape) * config.mask)

    def build(faults):
        vm = VirtualMachine(decomp, mask=config.mask, faults=faults)
        pre = make_preconditioner("diagonal", config.stencil,
                                  decomp=decomp)
        ctx = DistributedContext(config.stencil, pre, vm)
        return ChronGearSolver(ctx, tol=1e-10, max_iterations=3000)

    reference = build([]).solve(b)
    stages = {}
    ledgers = {}
    diagnoses = {}
    for stage_name, kind, params in [
            ("rank-death", "rank_death", {"rank": 5, "at": 9}),
            ("bitflip", "bitflip",
             {"target": "iterate", "rank": 2, "at": 16})]:
        fault = make_fault(kind, **params)
        with warnings.catch_warnings():
            # flipped exponent bits breed overflows on their way to
            # the ABFT check that kills them -- part of the scenario
            warnings.simplefilter("ignore", RuntimeWarning)
            result = build([fault]).solve(b, resilience=True)
        summary = result.extra["resilience"]
        identical = bool(np.array_equal(np.asarray(result.x),
                                        np.asarray(reference.x)))
        ledgers[stage_name] = {
            "summary": summary,
            "events": {phase: vars(counts)
                       for phase, counts in result.events.items()},
        }
        diagnoses[stage_name] = summary["recoveries"]
        violation = None
        if not result.converged:
            violation = "resilient solve did not converge"
        elif summary["counters"]["rollbacks"] < 1:
            violation = "fault fired but no rollback recorded"
        elif not identical:
            violation = ("recovered solution differs from the "
                         "undisturbed solve")
        stages[stage_name] = {
            "fault": fault.describe(),
            "rollbacks": summary["counters"]["rollbacks"],
            "recovered_kinds": [doc["kind"]
                                for doc in summary["recoveries"]],
            "bit_identical": identical,
            "violation": violation,
        }
    (out_dir / "resilience_ledger.json").write_text(
        json.dumps(ledgers, indent=2, sort_keys=True))
    (out_dir / "resilience_diagnoses.json").write_text(
        json.dumps(diagnoses, indent=2, sort_keys=True))
    return stages

#: The staged plan: small enough for CI, big enough to exercise the
#: warmup wave, the shared cache and multi-step resume.
PLAN = [
    ("repro.experiments.fig05_evp_marching",
     {"sizes": (4, 8), "trials": 2},
     lambda r: {"sec4.evp_roundoff_12x12":
                r.series_by_label("relative round-off").y[-1]}),
    ("repro.experiments.fig06_iterations", {}, None),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir", default="chaos-artifacts",
                        help="directory for results, manifest, report")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    results_dir = out_dir / "results"
    cache_dir = out_dir / "cache"
    report = {"stages": {}}
    violations = []

    def stage(name, **fields):
        report["stages"][name] = fields
        bad = fields.get("violation")
        print(f"  {name:24s} {bad or 'ok'}")
        if bad:
            violations.append((name, bad))

    saved_cache = get_cache()
    try:
        # Reference: the same plan, clean, in a throwaway cache.
        set_cache(ArtifactCache(cache_dir=str(out_dir / "ref-cache")))
        reference = run_all(output_dir=str(out_dir / "ref"), plan=PLAN,
                            jobs=args.jobs)
        stage("reference",
              failures=len(reference["failures"]),
              violation=("reference run failed"
                         if reference["failures"] else None))

        # Stage 1: a worker crash loses step 0; the run keeps going.
        # Runs inline (jobs=1): with a pool, the broken pool would take
        # the other in-flight first attempt down too, and "continue"
        # deliberately grants no retries.
        set_cache(ArtifactCache(cache_dir=str(cache_dir)))
        crashed = run_all(
            output_dir=str(results_dir), plan=PLAN, jobs=1,
            failure_policy=FailurePolicy(mode="continue"),
            pipeline_faults=[WorkerCrashFault(step=0, attempts=1)])
        lost = [f["step"] for f in crashed["failures"]]
        stage("crash", lost_steps=lost,
              violation=(None if lost == [PLAN[0][0]] else
                         f"expected to lose exactly step 0, lost {lost}"))

        # Stage 2: corrupt the cache the crashed run left behind, then
        # repair-audit it.
        fault = CacheCorruptFault(count=2, seed=3)
        fault.on_cache(str(cache_dir))
        set_cache(ArtifactCache(cache_dir=str(cache_dir)))
        audit = get_cache().verify(repair=True)
        stage("corrupt+repair", corrupted=fault.corrupted,
              audit={k: v for k, v in audit.items() if k != "corrupt"},
              found_corrupt=[name for name, _reason in audit["corrupt"]],
              violation=(None if fault.corrupted
                         and len(audit["corrupt"]) == len(fault.corrupted)
                         else "repair audit missed injected corruption"))

        # Stage 3: resume past the completed step; rebuild what repair
        # quarantined.
        resumed = run_all(output_dir=str(results_dir), plan=PLAN,
                          jobs=args.jobs, resume=True)
        stage("resume", skipped=resumed["skipped"],
              failures=len(resumed["failures"]),
              violation=(None if not resumed["failures"]
                         and resumed["skipped"] == [PLAN[1][0]] else
                         "resume did not complete cleanly past the "
                         "finished step"))

        # Stage 4: the numbers survived all of it, and the cache is
        # clean again.
        final_audit = get_cache().verify()
        stage("verify",
              measurements_equal=(resumed["measurements"]
                                  == reference["measurements"]),
              final_corrupt=len(final_audit["corrupt"]),
              violation=(None if resumed["measurements"]
                         == reference["measurements"]
                         and not final_audit["corrupt"] else
                         "resumed measurements or cache integrity "
                         "diverged from the clean reference"))

        # Stages 5+6: chaos *inside* the solve loop -- rank death and
        # a bitflip, each recovered bit-identically by the in-solve
        # resilience layer.
        out_dir.mkdir(parents=True, exist_ok=True)
        for stage_name, fields in _in_solve_chaos(out_dir).items():
            stage(stage_name, **fields)
    finally:
        set_cache(saved_cache)

    quarantine = cache_dir / "quarantine"
    report["quarantine"] = sorted(
        p.name for p in quarantine.iterdir()) if quarantine.is_dir() else []
    report["manifest"] = str(results_dir / MANIFEST_NAME)
    report["violations"] = [
        {"stage": stage_name, "violation": text}
        for stage_name, text in violations]

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "chaos_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True))
    print(f"\nreport -> {out_dir / 'chaos_report.json'}")
    if violations:
        print(f"CONTRACT VIOLATIONS ({len(violations)}):")
        for stage_name, text in violations:
            print(f"  {stage_name}: {text}")
        return 1
    print("chaos survived: crash resumed, corruption quarantined, "
          "rank death and bitflip recovered in-solve, numbers identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
