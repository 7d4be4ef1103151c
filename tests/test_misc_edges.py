"""Miscellaneous edge-case coverage across small API surfaces."""

import numpy as np
import pytest

from repro.experiments.common import ExperimentResult, Series
from repro.parallel.events import EventLedger
from repro.solvers.result import SolveResult


class TestSolveResultEdges:
    def test_relative_residual_zero_rhs(self):
        res = SolveResult(x=None, iterations=0, converged=True,
                          residual_norm=0.0, b_norm=0.0)
        assert res.relative_residual == 0.0

    def test_relative_residual_zero_rhs_nonzero_residual(self):
        res = SolveResult(x=None, iterations=1, converged=False,
                          residual_norm=1.0, b_norm=0.0)
        assert res.relative_residual == float("inf")

    def test_describe_mentions_failure(self):
        res = SolveResult(x=None, iterations=5, converged=False,
                          residual_norm=1.0, b_norm=2.0, solver="pcsi",
                          preconditioner="evp")
        text = res.describe()
        assert "NOT converged" in text and "pcsi+evp" in text


class TestLedgerRepr:
    def test_repr_contains_phases(self):
        ledger = EventLedger()
        ledger.record_flops("computation", 3)
        assert "computation" in repr(ledger)


class TestExperimentResultRender:
    def test_mismatched_series_lengths_render_nan(self):
        res = ExperimentResult(
            name="x", title="t",
            series=[Series("a", [1, 2, 3], [1.0, 2.0, 3.0]),
                    Series("b", [1, 2, 3], [1.0])],
        )
        text = res.render()
        assert "nan" in text

    def test_non_float_cells(self):
        res = ExperimentResult(
            name="x", title="t",
            series=[Series("a", ["p", "q"], [7, "label"])],
        )
        text = res.render()
        assert "label" in text

    def test_empty_result_renders_title_only(self):
        res = ExperimentResult(name="x", title="just a title")
        assert "just a title" in res.render()


class TestStencilMisc:
    def test_arrays_accessor(self, small_config):
        arrays = small_config.stencil.arrays()
        assert set(arrays) == {"c", "n", "s", "e", "w", "ne", "nw", "se",
                               "sw"}

    def test_diagonal_returns_copy(self, small_config):
        diag = small_config.stencil.diagonal()
        diag[0, 0] = -999.0
        assert small_config.stencil.c[0, 0] != -999.0

    def test_edge_to_corner_ratio_all_land_like(self):
        """A stencil whose corner coefficients vanish reports inf/0."""
        import dataclasses

        st_ = small = None
        from repro.grid import test_config as make_test_config

        cfg = make_test_config(8, 8, seed=1, aquaplanet=True)
        zeroed = dataclasses.replace(
            cfg.stencil,
            ne=np.zeros_like(cfg.stencil.ne),
            nw=np.zeros_like(cfg.stencil.nw),
            se=np.zeros_like(cfg.stencil.se),
            sw=np.zeros_like(cfg.stencil.sw),
        )
        assert zeroed.edge_to_corner_ratio() == 0.0  # edges are 0 too


class TestPrecondBaseMisc:
    def test_apply_stack_without_decomp_rejected(self, small_config):
        from repro.core.errors import SolverError
        from repro.precond import DiagonalPreconditioner

        pre = DiagonalPreconditioner(small_config.stencil)
        with pytest.raises(SolverError):
            pre.apply_stack(np.zeros((3, 4, 4)))
        assert pre.is_spd

    def test_setup_flops_default_zero(self, small_config):
        from repro.precond import DiagonalPreconditioner

        assert DiagonalPreconditioner(small_config.stencil).setup_flops() \
            == 0


class TestBlockProperties:
    def test_block_geometry_accessors(self):
        from repro.parallel import decompose

        decomp = decompose(10, 12, 2, 3)
        block = decomp.active_blocks[0]
        assert block.npoints == block.ny * block.nx
        assert block.is_active
        sl_j, sl_i = block.slices
        assert sl_j.stop - sl_j.start == block.ny
