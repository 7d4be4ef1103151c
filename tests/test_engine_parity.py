"""One stacked engine, every layout.

The virtual machine runs every decomposition on one stacked
``(p, bny + 2h, bnx + 2h)`` layout: eliminated all-land blocks are left
out of the stack, and ragged blocks are zero-padded to the largest block
shape.  Correctness is checked against independent references -- a
``scipy.sparse`` direct solve of the assembled operator, the
zero-padded global field (for halos) and the serial context -- over
uniform, land-eliminated, ragged and ragged + land-eliminated layouts.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.core.cache import ArtifactCache
from repro.grid import test_config as make_test_config
from repro.core.errors import ConfigurationError
from repro.experiments.common import measure_solver
from repro.operators import BlockedOperator, apply_stencil, ocean_submatrix
from repro.parallel import VirtualMachine, decompose
from repro.parallel.halo import BlockField
from repro.precond import make_preconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import (
    ChronGearSolver,
    DistributedContext,
    PCSISolver,
    SerialContext,
)

PHASES = ("computation", "preconditioning", "boundary", "reduction")
TOL = 1e-10

#: ``name -> (grid kwargs, lattice, uniform, land-eliminated)``.
LAYOUTS = {
    "uniform": (dict(ny=32, nx=48, seed=7), (4, 4), True, False),
    "uniform_landelim": (dict(ny=32, nx=48, seed=1, land_fraction=0.5),
                         (4, 4), True, True),
    "ragged": (dict(ny=34, nx=46, seed=9), (3, 5), False, False),
    "ragged_landelim": (dict(ny=34, nx=46, seed=1, land_fraction=0.5),
                        (4, 5), False, True),
}
PRECONDS = ("identity", "diagonal", "evp", "block_lu", "cheby")
SOLVERS = {"pcsi": PCSISolver, "chrongear": ChronGearSolver}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def layout(request):
    grid, lattice, uniform, landelim = LAYOUTS[request.param]
    grid = dict(grid)
    config = make_test_config(grid.pop("ny"), grid.pop("nx"), **grid)
    decomp = decompose(config.ny, config.nx, *lattice, mask=config.mask)
    assert decomp.is_uniform == uniform
    assert (decomp.num_active < decomp.num_blocks) == landelim
    return config, decomp


@pytest.fixture(scope="module")
def bounds_cache():
    return ArtifactCache(cache_dir=None)


def _precond(kind, config, decomp, bounds_cache=None):
    if kind == "evp":
        return evp_for_config(config, decomp=decomp)
    kwargs = {"bounds_cache": bounds_cache} if kind == "cheby" else {}
    return make_preconditioner(kind, config.stencil, decomp=decomp,
                               **kwargs)


def _rhs(config, nrhs=None, seed=1):
    rng = np.random.default_rng(seed)
    shape = config.shape if nrhs is None else config.shape + (nrhs,)
    mask = config.mask if nrhs is None else config.mask[..., None]
    return rng.standard_normal(shape) * mask


def _padding(decomp):
    """Boolean ``(p, bny + 2h, bnx + 2h)``: cells of each slot outside
    its block's own padded window."""
    h = decomp.halo_width
    bny, bnx = decomp.max_block_shape()
    pad = np.ones((decomp.num_active, bny + 2 * h, bnx + 2 * h), bool)
    for rank, block in enumerate(decomp.active_blocks):
        pad[rank, :block.ny + 2 * h, :block.nx + 2 * h] = False
    return pad


class _RecordingContext(DistributedContext):
    """Keeps every vector the solver allocates, for padding checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fields = []

    def _keep(self, field):
        self.fields.append(field)
        return field

    def new_vector(self):
        return self._keep(super().new_vector())

    def copy(self, v):
        return self._keep(super().copy(v))

    def from_global(self, array):
        return self._keep(super().from_global(array))


class TestLayouts:
    """Solves, halos and padding on the one stacked engine."""

    @pytest.mark.parametrize("nrhs", [None, 3], ids=["nrhs1", "nrhs3"])
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("precond", PRECONDS)
    def test_solve_matches_direct_solve(self, layout, bounds_cache,
                                        precond, solver, nrhs):
        config, decomp = layout
        vm = VirtualMachine(decomp, mask=config.mask)
        ctx = _RecordingContext(
            config.stencil, _precond(precond, config, decomp, bounds_cache),
            vm)
        kwargs = {"bounds_cache": bounds_cache} if solver == "pcsi" else {}
        b = _rhs(config, nrhs)
        result = SOLVERS[solver](ctx, tol=TOL, max_iterations=5000,
                                 **kwargs).solve(b)
        assert result.converged

        # Independent oracle: the assembled ocean operator.
        matrix, idx = ocean_submatrix(config.stencil)
        cols = b.reshape(config.ny * config.nx, -1)
        xs = np.asarray(result.x).reshape(config.ny * config.nx, -1)
        for j in range(cols.shape[1]):
            bj, xj = cols[idx, j], xs[idx, j]
            residual = np.linalg.norm(bj - matrix @ xj)
            assert residual <= 10 * TOL * np.linalg.norm(bj), j
            direct = spsolve(matrix.tocsc(), bj)
            assert np.allclose(xj, direct, rtol=0.0,
                               atol=1e-6 * np.abs(direct).max()), j
        assert np.all(np.asarray(result.x)[~config.mask] == 0.0)

        # Ragged padding never picks up a value.
        padding = _padding(decomp)
        assert ctx.fields
        for field in ctx.fields:
            assert not field.stack[padding].any()

    def test_halos_match_padded_global(self, layout):
        """Every halo equals the window of the zero-padded global field
        in which eliminated blocks are zero; padding reads zero."""
        config, decomp = layout
        h = decomp.halo_width
        g = _rhs(config, seed=4) + 0.5 * config.mask
        expected = np.zeros((config.ny + 2 * h, config.nx + 2 * h))
        for block in decomp.blocks:
            if block.is_active:
                expected[h + block.j0:h + block.j1,
                         h + block.i0:h + block.i1] = g[block.slices]
        vm = VirtualMachine(decomp, mask=config.mask)
        field = vm.scatter(g)
        # Stale values everywhere outside the interiors: the exchange
        # must overwrite every halo and re-zero every padding cell.
        stale = np.ones(field.stack.shape, bool)
        for rank, block in enumerate(decomp.active_blocks):
            stale[rank, h:h + block.ny, h:h + block.nx] = False
        field.stack[stale] = 9.0
        vm.exchange(field)
        padding = _padding(decomp)
        for rank, block in enumerate(decomp.active_blocks):
            window = expected[block.j0:block.j1 + 2 * h,
                              block.i0:block.i1 + 2 * h]
            assert np.array_equal(field.local(rank), window), rank
        assert not field.stack[padding].any()

    def test_ledger_matches_serial_context(self, layout):
        """The stacked engine records the event counts the serial
        context predicts over the same decomposition."""
        config, decomp = layout
        b = _rhs(config)
        pre = _precond("diagonal", config, decomp)
        serial = ChronGearSolver(
            SerialContext(config.stencil, pre, decomp=decomp),
            tol=TOL).solve(b)
        vm = VirtualMachine(decomp, mask=config.mask)
        dist = ChronGearSolver(
            DistributedContext(config.stencil, pre, vm), tol=TOL).solve(b)
        assert dist.iterations == serial.iterations
        for phase in PHASES:
            assert dist.events.get(phase) == serial.events.get(phase), phase


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def uniform_config():
    return make_test_config(32, 48, seed=7)


@pytest.fixture(scope="module")
def uniform_decomp(uniform_config):
    return decompose(uniform_config.ny, uniform_config.nx, 4, 4,
                     mask=uniform_config.mask)


class TestEngineResolution:
    def test_uniformity_queries(self, uniform_decomp):
        assert uniform_decomp.is_uniform
        assert uniform_decomp.max_block_shape() == (8, 12)
        ragged = decompose(34, 46, 3, 5)
        assert not ragged.is_uniform
        assert ragged.max_block_shape() == (12, 10)
        assert VirtualMachine(ragged).zeros().stack.shape == (15, 16, 14)

    def test_unknown_engine_rejected(self, uniform_config):
        with pytest.raises(ConfigurationError, match="serial.*batched"):
            measure_solver(uniform_config, engine="perrank", blocks=(4, 4),
                           cache=ArtifactCache(cache_dir=None))


class TestStackedField:
    def test_locals_are_views_of_stack(self):
        ragged = decompose(34, 46, 3, 5)
        field = BlockField.zeros(ragged)
        field.stack[3, 0, 0] = 7.0
        assert field.local(3)[0, 0] == 7.0
        block = ragged.active_blocks[2]
        assert field.local(2).shape == (block.ny + 4, block.nx + 4)
        field.interior(2)[...] = 5.0
        assert np.all(field.interior_stack()[2, :block.ny, :block.nx]
                      == 5.0)

    def test_copy_preserves_layout(self, uniform_decomp):
        field = BlockField.zeros(uniform_decomp, nrhs=2)
        dup = field.copy()
        assert dup.stack.shape == field.stack.shape
        assert dup.nrhs == 2
        dup.stack[...] = 1.0
        assert not field.stack.any()


class TestPrimitiveParity:
    """Each stacked primitive against a rank-by-rank reference computed
    from the global field, bit for bit (uniform layout, no padding)."""

    @staticmethod
    def _fields(config, decomp, seed=4):
        vm = VirtualMachine(decomp, mask=config.mask)
        rng = np.random.default_rng(seed)
        ga = rng.standard_normal(config.shape) * config.mask
        gb = rng.standard_normal(config.shape) * config.mask
        return vm, ga, gb

    def test_exchange_parity(self, uniform_config, uniform_decomp):
        vm, ga, _ = self._fields(uniform_config, uniform_decomp)
        h = uniform_decomp.halo_width
        field = vm.scatter(ga)
        vm.exchange(field)
        padded = np.pad(ga, h)
        for rank, block in enumerate(uniform_decomp.active_blocks):
            window = padded[block.j0:block.j1 + 2 * h,
                            block.i0:block.i1 + 2 * h]
            assert np.array_equal(field.local(rank), window), rank

    def test_matvec_parity(self, uniform_config, uniform_decomp):
        vm, ga, _ = self._fields(uniform_config, uniform_decomp)
        x = vm.scatter(ga)
        vm.exchange(x)
        out = vm.zeros()
        BlockedOperator(uniform_config.stencil, uniform_decomp).apply(x, out)
        ref = apply_stencil(uniform_config.stencil, ga)
        for rank, block in enumerate(uniform_decomp.active_blocks):
            assert np.array_equal(out.interior(rank), ref[block.slices])

    def test_dot_parity(self, uniform_config, uniform_decomp):
        vm, ga, gb = self._fields(uniform_config, uniform_decomp)
        mask = uniform_config.mask

        def rank_ordered(u, v):
            total = 0.0
            for block in uniform_decomp.active_blocks:
                s = block.slices
                total += float(np.sum(u[s] * v[s] * mask[s]))
            return total

        a, b = vm.scatter(ga), vm.scatter(gb)
        assert vm.global_dot(a, b) == rank_ordered(ga, gb)
        assert tuple(vm.global_dot_pair(a, b, b, b)) == \
            (rank_ordered(ga, gb), rank_ordered(gb, gb))

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "evp",
                                      "block_lu"])
    def test_precond_apply_stack_matches_per_rank(self, uniform_config,
                                                  uniform_decomp, kind):
        """The stacked application equals applying the (block-local)
        preconditioner to one rank's block at a time."""
        pre = _precond(kind, uniform_config, uniform_decomp)
        rng = np.random.default_rng(11)
        bny, bnx = uniform_decomp.max_block_shape()
        r_stack = rng.standard_normal((uniform_decomp.num_active, bny, bnx))
        z_stack = pre.apply_stack(r_stack)
        for rank, block in enumerate(uniform_decomp.active_blocks):
            r = np.zeros(uniform_config.shape)
            r[block.slices] = r_stack[rank]
            assert np.array_equal(z_stack[rank],
                                  pre.apply_global(r)[block.slices]), rank


class TestGuardrailParity:
    """The guarded convergence loop (entry checks, divergence detection,
    diagnosed failures) and the scale primitive behave the same in the
    serial context and on the stacked engine.  Parity of resilience
    under injected faults is covered in ``tests/test_resilience.py``."""

    @staticmethod
    def _contexts(config, decomp):
        pre = _precond("diagonal", config, decomp)
        vm = VirtualMachine(decomp, mask=config.mask)
        return {"serial": SerialContext(config.stencil, pre, decomp=decomp),
                "batched": DistributedContext(config.stencil, pre, vm)}

    def test_scale_primitive_parity(self, uniform_config, uniform_decomp):
        rng = np.random.default_rng(13)
        g = rng.standard_normal(uniform_config.shape) * uniform_config.mask
        outs = {}
        for name, ctx in self._contexts(uniform_config,
                                        uniform_decomp).items():
            v = ctx.from_global(g)
            ctx.scale(1.0 / 7.0, v)
            outs[name] = (ctx.to_global(v), ctx.ledger.counts("computation"))
        assert np.array_equal(outs["serial"][0], outs["batched"][0])
        assert outs["serial"][1] == outs["batched"][1]

    def test_diagnosed_budget_failure_parity(self, uniform_config,
                                             uniform_decomp):
        from repro.core.errors import ConvergenceError

        errors = {}
        for name, ctx in self._contexts(uniform_config,
                                        uniform_decomp).items():
            solver = ChronGearSolver(ctx, tol=1e-13, max_iterations=9)
            with pytest.raises(ConvergenceError) as err:
                solver.solve(apply_stencil(uniform_config.stencil,
                                           _rhs(uniform_config)))
            errors[name] = err.value
        ser, bat = errors["serial"], errors["batched"]
        assert ser.diagnosis.kind == bat.diagnosis.kind
        assert ser.iterations == bat.iterations == 9
        assert bat.residual_norm == pytest.approx(ser.residual_norm,
                                                  rel=1e-10)
        for phase in PHASES:
            assert ser.result.events.get(phase) == \
                bat.result.events.get(phase), phase

    def test_divergence_detection_parity(self, uniform_config,
                                         uniform_decomp):
        from repro.core.errors import ConvergenceError

        errors = {}
        for name, ctx in self._contexts(uniform_config,
                                        uniform_decomp).items():
            solver = PCSISolver(ctx, tol=1e-10, max_iterations=3000,
                                eig_bounds=(0.05, 0.3), max_recoveries=0)
            with pytest.raises(ConvergenceError) as err:
                solver.solve(apply_stencil(uniform_config.stencil,
                                           _rhs(uniform_config)))
            errors[name] = err.value
        ser, bat = errors["serial"], errors["batched"]
        assert ser.diagnosis.kind == bat.diagnosis.kind
        assert ser.diagnosis.iteration == bat.diagnosis.iteration
        assert np.allclose(bat.result.residual_history,
                           ser.result.residual_history, rtol=1e-8)

    def test_zero_rhs_parity(self, uniform_config, uniform_decomp):
        results = {}
        for name, ctx in self._contexts(uniform_config,
                                        uniform_decomp).items():
            results[name] = ChronGearSolver(ctx).solve(
                np.zeros(uniform_config.shape))
        ser, bat = results["serial"], results["batched"]
        assert ser.iterations == bat.iterations == 0
        assert ser.extra == bat.extra == {"zero_rhs": True}
        for phase in set(ser.setup_events) | set(bat.setup_events):
            assert ser.setup_events.get(phase) == \
                bat.setup_events.get(phase), phase
