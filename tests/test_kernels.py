"""Kernel backend registry and cross-backend parity.

The kernel backends are execution details: the ``numpy`` reference and
the ``fused`` backend must produce bit-identical results everywhere
(same IEEE operation sequence, different dispatch).  The parity
matrix below exercises every backend against the reference across
stencil matvecs, EVP preconditioner applies, and full solves in the
serial context and on the stacked virtual machine, under both mask
regimes.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import KernelError
from repro.grid import test_config as make_test_config
from repro.kernels import (
    AUTO_ORDER,
    KERNEL_CHOICES,
    FusedKernels,
    NumpyKernels,
    available_backends,
    get_backend,
    resolve_kernels,
)
from repro.operators import BlockedOperator, apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import DistributedContext, PCSISolver, SerialContext

#: The backends the parity matrix runs; each must match the reference
#: bit for bit.
BACKENDS = ["numpy", "fused"]


def _assert_close(name, ref, got):
    """Every backend is bit-identical to the numpy reference."""
    assert np.array_equal(ref, got), name


@pytest.fixture(scope="module")
def uniform_config():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def uniform_decomp(uniform_config):
    d = decompose(uniform_config.ny, uniform_config.nx, 4, 4,
                  mask=uniform_config.mask)
    assert d.is_uniform and d.num_active == d.num_blocks
    return d


@pytest.fixture(scope="module")
def eliminated_config():
    return make_test_config(32, 48, seed=1, land_fraction=0.5)


@pytest.fixture(scope="module")
def eliminated_decomp(eliminated_config):
    d = decompose(eliminated_config.ny, eliminated_config.nx, 4, 4,
                  mask=eliminated_config.mask)
    assert d.num_active < d.num_blocks
    return d


def _rhs(config, seed=1):
    rng = np.random.default_rng(seed)
    return apply_stencil(config.stencil,
                         rng.standard_normal(config.shape) * config.mask)


class TestRegistry:
    def test_reference_backends_always_available(self):
        names = available_backends()
        assert "numpy" in names
        assert "fused" in names
        assert names == tuple(n for n in AUTO_ORDER if n in names)

    def test_determinism_flags(self):
        assert NumpyKernels().deterministic
        assert FusedKernels().deterministic

    def test_unknown_backend_raises_listing_choices(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            get_backend("gpu")
        with pytest.raises(KernelError) as err:
            resolve_kernels("gpu")
        for choice in KERNEL_CHOICES:
            assert choice in str(err.value)

    def test_auto_picks_first_available(self):
        assert resolve_kernels("auto").name == available_backends()[0]

    def test_none_defaults_to_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert resolve_kernels(None) is resolve_kernels("auto")

    def test_env_variable_honored(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_kernels(None).name == "numpy"
        monkeypatch.setenv("REPRO_KERNELS", "gpu")
        with pytest.raises(KernelError):
            resolve_kernels(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "numpy")
        assert resolve_kernels("fused").name == "fused"

    def test_instance_passthrough(self):
        backend = FusedKernels()
        assert resolve_kernels(backend) is backend

    def test_names_case_insensitive(self):
        assert resolve_kernels("FUSED").name == "fused"

    def test_describe_mentions_name(self):
        for name in available_backends():
            assert name in get_backend(name).describe()

    def test_cli_rejects_unknown_backend(self):
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "solve", "--config",
             "test", "--kernels", "gpu"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "unknown kernel backend" in proc.stderr


class TestStencilParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_global_matvec(self, uniform_config, backend):
        ref = apply_stencil(uniform_config.stencil,
                            _rhs(uniform_config), kernels="numpy")
        got = apply_stencil(uniform_config.stencil,
                            _rhs(uniform_config), kernels=backend)
        _assert_close(backend, ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_local_matvec(self, eliminated_config, backend):
        """Every rank's block of a ragged, land-eliminated stacked
        matvec matches the global matvec on that block."""
        config = eliminated_config
        decomp = decompose(config.ny, config.nx, 5, 3, mask=config.mask)
        assert not decomp.is_uniform
        assert decomp.num_active < decomp.num_blocks
        x = _rhs(config)
        ref = apply_stencil(config.stencil, x, kernels="numpy")
        vm = VirtualMachine(decomp, mask=config.mask)
        xf = vm.scatter(x)
        vm.exchange(xf)
        out = vm.zeros()
        BlockedOperator(config.stencil, decomp, kernels=backend).apply(
            xf, out)
        for rank, block in enumerate(decomp.active_blocks):
            _assert_close(backend, ref[block.slices], out.interior(rank))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stacked_matvec(self, uniform_config, uniform_decomp, backend):
        outs = {}
        for name in ("numpy", backend):
            vm = VirtualMachine(uniform_decomp, mask=uniform_config.mask)
            op = BlockedOperator(uniform_config.stencil, uniform_decomp,
                                 kernels=name)
            x = vm.scatter(_rhs(uniform_config))
            vm.exchange(x)
            out = vm.zeros()
            op.apply(x, out)
            outs[name] = out.interior_stack().copy()
        _assert_close(backend, outs["numpy"], outs[backend])


class TestEVPParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cfg_name", ["uniform", "eliminated"])
    def test_apply_global(self, uniform_config, eliminated_config,
                          backend, cfg_name, request):
        config = {"uniform": uniform_config,
                  "eliminated": eliminated_config}[cfg_name]
        decomp = request.getfixturevalue(f"{cfg_name}_decomp")
        r = _rhs(config, seed=3)
        ref = evp_for_config(config, decomp=decomp,
                             kernels="numpy").apply_global(r)
        got = evp_for_config(config, decomp=decomp,
                             kernels=backend).apply_global(r)
        _assert_close(backend, ref, got)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_apply_block_and_stack(self, uniform_config, uniform_decomp,
                                   backend):
        """Stacked application matches the numpy backend, and each
        rank's slab matches that block of the global application."""
        rng = np.random.default_rng(11)
        bny, bnx = uniform_decomp.max_block_shape()
        r_stack = rng.standard_normal((uniform_decomp.num_active, bny, bnx))
        pres = {name: evp_for_config(uniform_config, decomp=uniform_decomp,
                                     kernels=name)
                for name in {"numpy", backend}}
        z_stack = pres[backend].apply_stack(r_stack)
        _assert_close(backend, pres["numpy"].apply_stack(r_stack), z_stack)
        for rank, block in enumerate(uniform_decomp.active_blocks):
            r = np.zeros(uniform_config.shape)
            r[block.slices] = r_stack[rank]
            _assert_close(backend,
                          pres[backend].apply_global(r)[block.slices],
                          z_stack[rank])

    def test_influence_matrices_backend_independent(self, uniform_config,
                                                    uniform_decomp):
        """Cached artifacts must not depend on the consuming backend."""
        pres = {name: evp_for_config(uniform_config, decomp=uniform_decomp,
                                     kernels=name)
                for name in available_backends()}
        ref = pres["numpy"]
        for name, pre in pres.items():
            for shape, engine in pre._engines.items():
                ref_engine = ref._engines[shape]
                assert np.array_equal(engine._w, ref_engine._w), name
                assert np.array_equal(engine._r, ref_engine._r), name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("precond", ["identity", "diagonal", "evp"])
class TestSolveParity:
    """Full P-CSI solves: every backend against the numpy reference,
    in the serial context and on the stacked virtual machine."""

    def _solve(self, config, decomp, engine, precond, backend):
        if precond == "evp":
            pre = evp_for_config(config, decomp=decomp, kernels=backend)
        else:
            pre = make_preconditioner(precond, config.stencil,
                                      decomp=decomp, kernels=backend)
        if engine == "serial":
            ctx = SerialContext(config.stencil, pre, decomp=decomp,
                                kernels=backend)
        else:
            vm = VirtualMachine(decomp, mask=config.mask)
            ctx = DistributedContext(config.stencil, pre, vm,
                                     kernels=backend)
        solver = PCSISolver(ctx, tol=1e-10, max_iterations=3000)
        return solver.solve(_rhs(config))

    @pytest.mark.parametrize("engine", ["serial", "batched"])
    def test_uniform(self, uniform_config, uniform_decomp, backend,
                     precond, engine):
        ref = self._solve(uniform_config, uniform_decomp, engine, precond,
                          "numpy")
        got = self._solve(uniform_config, uniform_decomp, engine, precond,
                          backend)
        if get_backend(backend).deterministic:
            assert ref.iterations == got.iterations
            assert ref.residual_norm == got.residual_norm
        _assert_close(backend, ref.x, got.x)

    def test_eliminated(self, eliminated_config, eliminated_decomp,
                        backend, precond):
        ref = self._solve(eliminated_config, eliminated_decomp, "batched",
                          precond, "numpy")
        got = self._solve(eliminated_config, eliminated_decomp, "batched",
                          precond, backend)
        if get_backend(backend).deterministic:
            assert ref.iterations == got.iterations
        _assert_close(backend, ref.x, got.x)
