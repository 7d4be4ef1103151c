"""Event-ledger regressions: global reductions per iteration, pinned.

The communication ledger is the quantity every perfmodel experiment is
priced from, so its per-solver shape is contract, not implementation
detail.  For a converged solve of ``K`` iterations with convergence
checks every ``f`` iterations, the loop ledger must show exactly:

=============  =============================  =======================
solver         blocking reductions            overlapped reductions
=============  =============================  =======================
chrongear      ``K + K//f`` (1 fused/iter)    --
pcg            ``2K + K//f`` (2/iter)         --
pipecg         ``K//f`` (checks only)         ``K`` (1 fused/iter)
pcsi           ``K//f`` (checks only)         --
capcg          ``ceil(K/s) - 1 + K//f``       --
=============  =============================  =======================

(CA-PCG's first Gram reduction happens in the setup stage, hence the
``- 1``.)  The same counts must come out of the serial model and the
stacked virtual machine -- the serial context *predicts* what the
distributed run *measures*.
"""

import math

import numpy as np
import pytest

from repro.grid import test_config as make_test_config
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.perfmodel import event_totals
from repro.precond import make_preconditioner
from repro.solvers import DistributedContext, SerialContext, make_solver

ENGINES = ("serial", "batched")


@pytest.fixture(scope="module")
def cfg():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def rhs(cfg):
    rng = np.random.default_rng(3)
    return apply_stencil(cfg.stencil,
                         rng.standard_normal(cfg.shape) * cfg.mask)


def _solve(cfg, rhs, name, engine, **kwargs):
    if engine == "serial":
        pre = make_preconditioner("diagonal", cfg.stencil)
        ctx = SerialContext(cfg.stencil, pre)
    else:
        decomp = decompose(cfg.ny, cfg.nx, 4, 4, mask=cfg.mask)
        pre = make_preconditioner("diagonal", cfg.stencil, decomp=decomp)
        vm = VirtualMachine(decomp, mask=cfg.mask)
        ctx = DistributedContext(cfg.stencil, pre, vm)
    solver = make_solver(name, ctx, tol=1e-12, max_iterations=500,
                         **kwargs)
    result = solver.solve(rhs)
    assert result.converged
    return result, solver


def _blocking(result):
    return result.events.get("reduction").allreduces \
        if "reduction" in result.events else 0


def _overlapped(result):
    entry = result.events.get("reduction_overlap")
    return entry.allreduces if entry is not None else 0


@pytest.mark.parametrize("engine", ENGINES)
class TestReductionsPerIteration:
    """The pinned loop-reduction budget, engine by engine."""

    def test_chrongear_one_fused_per_iteration(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "chrongear", engine)
        k, f = result.iterations, solver.check_freq
        assert _blocking(result) == k + k // f
        assert _overlapped(result) == 0
        # One fused 2-word reduction per iteration + 1-word checks.
        assert result.events["reduction"].allreduce_words == \
            2 * k + k // f

    def test_pcg_two_per_iteration(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "pcg", engine)
        k, f = result.iterations, solver.check_freq
        assert _blocking(result) == 2 * k + k // f

    def test_pipecg_overlaps_its_single_reduction(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "pipecg", engine)
        k, f = result.iterations, solver.check_freq
        # The per-iteration fused reduction hides behind the matvec;
        # only the periodic checks block.
        assert _overlapped(result) == k
        assert _blocking(result) == k // f

    def test_pcsi_eliminates_loop_reductions(self, cfg, rhs, engine):
        result, solver = _solve(cfg, rhs, "pcsi", engine)
        k, f = result.iterations, solver.check_freq
        assert _blocking(result) == k // f
        assert _overlapped(result) == 0

    @pytest.mark.parametrize("sstep", [2, 4, 8])
    def test_capcg_one_gram_per_epoch(self, cfg, rhs, engine, sstep):
        result, solver = _solve(cfg, rhs, "capcg", engine, sstep=sstep)
        k, f = result.iterations, solver.check_freq
        # ceil(K/s) epochs; the first Gram is charged to setup.
        assert _blocking(result) == \
            math.ceil(k / sstep) - 1 + k // f
        assert _overlapped(result) == 0

    def test_capcg_amortization_ordering(self, cfg, rhs, engine):
        """More s, fewer reductions -- and always fewer than ChronGear."""
        chrongear, _ = _solve(cfg, rhs, "chrongear", engine)
        previous = event_totals(chrongear.events).allreduces
        for sstep in (2, 4, 8):
            result, _ = _solve(cfg, rhs, "capcg", engine, sstep=sstep)
            current = event_totals(result.events).allreduces
            assert current < previous
            previous = current


class TestSerialModelPredictsEngines:
    """Identical ledgers across the serial model and the stacked VM."""

    @pytest.mark.parametrize("name,kwargs", [
        ("chrongear", {}), ("pcg", {}), ("pipecg", {}),
        ("pcsi", {}), ("capcg", {"sstep": 4}),
    ])
    def test_ledgers_agree(self, cfg, rhs, name, kwargs):
        results = {}
        bounds = {}
        for engine in ENGINES:
            results[engine], solver = _solve(cfg, rhs, name, engine,
                                             **bounds, **kwargs)
            if getattr(solver, "eig_bounds", None) is not None:
                # Reuse the first run's interval so both contexts
                # execute the identical schedule.
                bounds = {"eig_bounds": solver.eig_bounds}
        serial = results["serial"]
        other = results["batched"]
        assert other.iterations == serial.iterations
        for phase in set(serial.events) | set(other.events):
            se = serial.events.get(phase)
            oe = other.events.get(phase)
            assert (se is None) == (oe is None), phase
            if se is None:
                continue
            assert se.allreduces == oe.allreduces, phase
            assert se.allreduce_words == oe.allreduce_words, phase
            assert se.halo_exchanges == oe.halo_exchanges, phase
