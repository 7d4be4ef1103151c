"""Integration tests: artifact cache through the experiment pipeline.

Covers the EVP influence-matrix disk round trip, cache-key fidelity
(including the same-name-different-seed regression), measured-solve and
eigenbound memoization, and the acceptance criterion that cached,
uncached, cold, warm and parallel pipeline runs all produce identical
measurements.
"""

import json

import numpy as np
import pytest

from repro.core.cache import ArtifactCache, get_cache, set_cache
from repro.experiments.common import (
    get_cached_config,
    measure_solver,
    solve_key,
)
from repro.grid import test_config as make_test_config
from repro.parallel import decompose
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config, evp_influence_key
from repro.solvers import SerialContext
from repro.solvers.lanczos import estimate_eigenbounds


@pytest.fixture()
def global_cache(tmp_path):
    """Install a fresh disk-backed global cache; restore the old one."""
    saved = get_cache()
    cache = ArtifactCache(cache_dir=str(tmp_path / "artifacts"))
    set_cache(cache)
    yield cache
    set_cache(saved)


def fresh_view(cache):
    """A new cache on the same directory (simulates a fresh process)."""
    return ArtifactCache(cache_dir=cache.cache_dir)


class TestEVPDiskRoundTrip:
    def test_apply_global_bit_identical(self, small_config, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        built = evp_for_config(small_config, cache=cache)
        assert cache.writes >= 1

        reloaded_cache = fresh_view(cache)
        loaded = evp_for_config(small_config, cache=reloaded_cache)
        assert reloaded_cache.disk_hits >= 1

        state_a = built.influence_state()
        state_b = loaded.influence_state()
        assert sorted(state_a) == sorted(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

        rng = np.random.default_rng(11)
        r = rng.standard_normal(small_config.shape) * small_config.mask
        np.testing.assert_array_equal(built.apply_global(r),
                                      loaded.apply_global(r))

    def test_apply_stack_bit_identical(self, small_config, tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        decomp = decompose(small_config.ny, small_config.nx, 4, 4,
                           mask=small_config.mask)
        built = evp_for_config(small_config, decomp=decomp, cache=cache)
        loaded = evp_for_config(small_config, decomp=decomp,
                                cache=fresh_view(cache))

        rng = np.random.default_rng(13)
        bny, bnx = decomp.max_block_shape()
        stack = rng.standard_normal((decomp.num_active, bny, bnx))
        np.testing.assert_array_equal(built.apply_stack(stack),
                                      loaded.apply_stack(stack))


class TestKeyFidelity:
    def test_key_tracks_every_parameter(self, small_config):
        base = evp_influence_key(small_config)
        assert base == evp_influence_key(small_config)
        assert base != evp_influence_key(small_config, tile_size=8)
        assert base != evp_influence_key(small_config, land_epsilon=0.2)
        assert base != evp_influence_key(small_config, simplified=False)
        decomp = decompose(small_config.ny, small_config.nx, 4, 4,
                           mask=small_config.mask)
        assert base != evp_influence_key(small_config, decomp=decomp)

    def test_key_tracks_grid_content(self):
        # Same construction parameters except the topography seed: the
        # names/shapes agree but the content digests (and keys) must not.
        a = make_test_config(32, 48, seed=7)
        b = make_test_config(32, 48, seed=8)
        assert a.content_digest() != b.content_digest()
        assert evp_influence_key(a) != evp_influence_key(b)

    def test_same_name_different_seed_no_collision(self, global_cache):
        """Regression: solve memoization was keyed on ``config.name``
        alone, so two same-name configurations with different seeds
        collided and the second silently received the first's solve."""
        cfg_a = get_cached_config("pop_1deg", scale=0.25, seed=101)
        cfg_b = get_cached_config("pop_1deg", scale=0.25, seed=202)
        assert cfg_a is not cfg_b
        assert cfg_a.content_digest() != cfg_b.content_digest()
        assert (solve_key(cfg_a, "chrongear", "diagonal", 1e-13, 10, 60000)
                != solve_key(cfg_b, "chrongear", "diagonal", 1e-13, 10,
                             60000))

        res_a = measure_solver(cfg_a, "chrongear", "diagonal")
        res_b = measure_solver(cfg_b, "chrongear", "diagonal")
        assert not np.array_equal(res_a.x, res_b.x)
        # ... while a repeated request still hits the cache.
        assert measure_solver(cfg_a, "chrongear", "diagonal") is res_a


class TestCorruptionRecovery:
    def test_corrupted_influence_entry_rebuilds(self, small_config,
                                                tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))
        built = evp_for_config(small_config, cache=cache)
        for path in cache._disk_entries():
            with open(path, "wb") as handle:
                handle.write(b"garbage")

        recovery = fresh_view(cache)
        rebuilt = evp_for_config(small_config, cache=recovery)
        assert recovery.disk_hits == 0
        assert recovery.misses >= 1
        rng = np.random.default_rng(17)
        r = rng.standard_normal(small_config.shape) * small_config.mask
        np.testing.assert_array_equal(built.apply_global(r),
                                      rebuilt.apply_global(r))


class TestMeasuredSolveRoundTrip:
    def test_disk_roundtrip_preserves_every_field(self, global_cache):
        cfg = get_cached_config("pop_1deg", scale=0.25)
        fresh = measure_solver(cfg, "pcsi", "diagonal")

        warm_cache = fresh_view(global_cache)
        warm = measure_solver(cfg, "pcsi", "diagonal", cache=warm_cache)
        assert warm_cache.disk_hits >= 1

        np.testing.assert_array_equal(fresh.x, warm.x)
        assert fresh.iterations == warm.iterations
        assert fresh.converged == warm.converged
        assert fresh.residual_norm == warm.residual_norm
        assert fresh.b_norm == warm.b_norm
        assert fresh.residual_history == warm.residual_history
        assert fresh.solver == warm.solver
        assert fresh.preconditioner == warm.preconditioner
        for name, counts in fresh.events.items():
            if any(vars(counts).values()):
                assert vars(warm.events[name]) == vars(counts)
        assert (warm.extra["measured_points"]
                == fresh.extra["measured_points"])


class TestEigenboundsCache:
    def _context(self, config):
        pre = make_preconditioner("diagonal", config.stencil)
        return SerialContext(config.stencil, pre)

    def test_cached_bounds_and_events_identical(self, aqua_config,
                                                tmp_path):
        cache = ArtifactCache(cache_dir=str(tmp_path))

        ctx_fresh = self._context(aqua_config)
        nu1, mu1, info1 = estimate_eigenbounds(ctx_fresh, cache=cache)
        assert not info1.get("cached")

        ctx_warm = self._context(aqua_config)
        nu2, mu2, info2 = estimate_eigenbounds(ctx_warm,
                                               cache=fresh_view(cache))
        assert info2["cached"] is True
        assert (nu1, mu1) == (nu2, mu2)
        assert info1["steps"] == info2["steps"]
        assert info1["history"] == info2["history"]

        # The replayed ledger must match the fresh run's event stream
        # exactly, or modeled timings would differ between runs.
        fresh_phases = ctx_fresh.ledger.snapshot()
        warm_phases = ctx_warm.ledger.snapshot()
        assert set(fresh_phases) == set(warm_phases)
        for name in fresh_phases:
            assert vars(fresh_phases[name]) == vars(warm_phases[name])


class TestPipelineParity:
    PLAN = [("repro.experiments.fig07_lowres_scaling", {"scale": 0.5},
             None)]

    @staticmethod
    def _encode(report):
        return json.dumps(report["measurements"], sort_keys=True,
                          default=str)

    @staticmethod
    def _series(report):
        return {series.label: series.y
                for series in report["results"]["fig07"].series}

    def test_cached_uncached_and_parallel_agree(self, tmp_path):
        from repro.reporting import run_all

        saved = get_cache()
        try:
            cache_dir = str(tmp_path / "artifacts")

            set_cache(ArtifactCache())  # memory-only: caching disabled
            uncached = run_all(plan=self.PLAN)

            set_cache(ArtifactCache(cache_dir=cache_dir))
            cold = run_all(plan=self.PLAN)

            set_cache(ArtifactCache(cache_dir=cache_dir))
            warm = run_all(plan=self.PLAN)
            assert get_cache().disk_hits >= 1

            set_cache(ArtifactCache(cache_dir=cache_dir))
            parallel = run_all(plan=self.PLAN, jobs=2)
        finally:
            set_cache(saved)

        reference = self._series(uncached)
        for report in (cold, warm, parallel):
            assert self._series(report) == reference
            assert self._encode(report) == self._encode(uncached)

        for report, jobs in ((uncached, 1), (cold, 1), (warm, 1),
                             (parallel, 2)):
            assert report["jobs"] == jobs
            (timing,) = report["timings"]
            assert timing["step"] == self.PLAN[0][0]
            assert timing["seconds"] > 0.0
            assert timing["cache_hits"] >= 0
            assert timing["cache_misses"] >= 0
        assert warm["timings"][0]["cache_hits"] >= 1
        assert "warmup" in parallel
        assert parallel["warmup"]["errors"] == []
