"""Unit and property tests for the operator machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SolverError
from repro.grid import test_config as make_test_config
from repro.operators import (
    BlockedOperator,
    MATVEC_FLOPS_PER_POINT,
    apply_stencil,
    condition_number,
    extreme_eigenvalues,
    ocean_submatrix,
    residual,
    to_sparse,
)
from repro.kernels import resolve_kernels
from repro.parallel import VirtualMachine, decompose


class TestApplyStencil:
    def test_matches_sparse_matvec(self, small_config):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(small_config.shape)
        dense = to_sparse(small_config.stencil) @ x.ravel()
        stencil = apply_stencil(small_config.stencil, x)
        assert np.allclose(stencil.ravel(), dense, rtol=1e-13, atol=1e-10)

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_matches_sparse_matvec_property(self, seed):
        cfg = make_test_config(14, 18, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(cfg.shape)
        dense = to_sparse(cfg.stencil) @ x.ravel()
        assert np.allclose(apply_stencil(cfg.stencil, x).ravel(), dense,
                           rtol=1e-12, atol=1e-9)

    def test_linear(self, small_config):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(small_config.shape)
        y = rng.standard_normal(small_config.shape)
        lhs = apply_stencil(small_config.stencil, 2 * x + y)
        rhs = (2 * apply_stencil(small_config.stencil, x)
               + apply_stencil(small_config.stencil, y))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-9)

    def test_out_parameter(self, small_config):
        x = np.ones(small_config.shape)
        out = np.empty(small_config.shape)
        ret = apply_stencil(small_config.stencil, x, out=out)
        assert ret is out

    def test_residual(self, small_config, rhs_maker):
        b, x_true = rhs_maker(small_config)
        r = residual(small_config.stencil, x_true, b)
        assert np.abs(r).max() < 1e-8 * np.abs(b).max()

    def test_flops_constant_is_nine(self):
        assert MATVEC_FLOPS_PER_POINT == 9


class TestLocalApply:
    def test_local_matches_global_on_interior(self, small_config):
        cfg = small_config
        rng = np.random.default_rng(2)
        x = rng.standard_normal(cfg.shape)
        ref = apply_stencil(cfg.stencil, x)
        h = 2
        padded = np.zeros((cfg.ny + 2 * h, cfg.nx + 2 * h))
        padded[h:-h, h:-h] = x
        j0, j1, i0, i1 = 8, 20, 4, 28
        sub = _slice_coeffs(cfg.stencil, j0, j1, i0, i1)
        local = padded[j0:j1 + 2 * h, i0:i1 + 2 * h]
        # One block as a one-slot stack through the stacked kernel.
        out = np.empty((1, j1 - j0, i1 - i0))
        resolve_kernels("numpy").stencil_apply_stacked(
            sub, local[None], h, j1 - j0, i1 - i0, out)
        out = out[0]
        assert np.allclose(out, ref[j0:j1, i0:i1], rtol=1e-13, atol=1e-10)


def _slice_coeffs(stencil, j0, j1, i0, i1):
    """The nine coefficient arrays of one block, as a one-slot stack."""
    return {name: getattr(stencil, name)[None, j0:j1, i0:i1]
            for name in ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw")}


class TestBlockedOperator:
    def test_matches_global_bitwise(self, small_config, small_decomp):
        cfg = small_config
        vm = VirtualMachine(small_decomp, mask=cfg.mask)
        op = BlockedOperator(cfg.stencil, small_decomp)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(cfg.shape) * cfg.mask
        xf = vm.scatter(x)
        vm.exchange(xf)
        out = vm.zeros()
        op.apply(xf, out)
        gathered = vm.gather(out)
        ref = apply_stencil(cfg.stencil, x)
        for block in small_decomp.active_blocks:
            assert np.array_equal(gathered[block.slices], ref[block.slices])

    def test_shape_mismatch_raises(self, small_config):
        other = decompose(10, 10, 2, 2)
        with pytest.raises(SolverError):
            BlockedOperator(small_config.stencil, other)


class TestSparseAssembly:
    def test_matrix_is_symmetric(self, small_config):
        m = to_sparse(small_config.stencil)
        assert abs(m - m.T).max() == 0.0

    def test_blocked_ordering_is_permutation(self, small_config):
        decomp = decompose(small_config.ny, small_config.nx, 2, 2,
                           curve="rowmajor")
        a = to_sparse(small_config.stencil, order="rowmajor")
        b = to_sparse(small_config.stencil, order="blocked", decomp=decomp)
        # Same multiset of values and identical spectra up to permutation:
        assert a.nnz == b.nnz
        assert a.diagonal().sum() == pytest.approx(b.diagonal().sum())
        assert np.sort(a.data) == pytest.approx(np.sort(b.data))

    def test_blocked_requires_decomp(self, small_config):
        with pytest.raises(SolverError):
            to_sparse(small_config.stencil, order="blocked")

    def test_unknown_order_raises(self, small_config):
        with pytest.raises(SolverError):
            to_sparse(small_config.stencil, order="diagonal")

    def test_ocean_submatrix_size(self, small_config):
        matrix, idx = ocean_submatrix(small_config.stencil)
        assert matrix.shape == (small_config.n_ocean, small_config.n_ocean)
        assert idx.size == small_config.n_ocean


class TestSpectral:
    def test_preconditioned_bounds_tighter(self, small_config):
        matrix, idx = ocean_submatrix(small_config.stencil)
        diag = small_config.stencil.c.ravel()[idx]
        raw = condition_number(matrix)
        pre = condition_number(matrix, preconditioner_diag=diag)
        assert pre < raw

    def test_nonpositive_diag_rejected(self, small_config):
        matrix, idx = ocean_submatrix(small_config.stencil)
        bad = np.zeros(idx.size)
        with pytest.raises(SolverError):
            extreme_eigenvalues(matrix, preconditioner_diag=bad)

    def test_condition_number_positive_definite_required(self):
        from scipy import sparse

        indefinite = sparse.diags([1.0, -1.0]).tocsr()
        with pytest.raises(SolverError):
            condition_number(indefinite)
