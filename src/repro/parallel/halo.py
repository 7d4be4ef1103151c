"""Halo (ghost-cell) exchange over the stacked block layout.

Each simulated rank owns one block, stored with a halo ring of width
``h`` (POP default 2).  After a stencil operation, the halo rings must
be refreshed from neighboring blocks before the next operation can read
them -- that is POP's ``update_halo`` (Algorithm 1 step 6 / Algorithm 2
step 10 of the paper).

Every field lives in one dense ``(p, bny + 2h, bnx + 2h)`` stack, one
slot per active block in rank order, with ``(bny, bnx)`` the largest
block shape.  A ragged block occupies the leading corner of its slot;
the padding beyond its own halo ring is kept at zero.  Eliminated
all-land blocks have no slot at all.

:meth:`HaloExchanger.exchange_stacked` refreshes every halo of the
stack with one scatter of all interiors into a padded global scratch
and one gather of every block's padded window out of it.  Out-of-domain
halos (beyond the global grid edge, or adjacent to an eliminated
all-land block) read zeros: the closed lateral boundary of the
barotropic operator.
"""

import numpy as np

from repro.core.errors import DecompositionError


class BlockField:
    """Per-rank local arrays (with halos) for one distributed 2-D field.

    All local arrays live in one dense ``(num_ranks, bny + 2h, bnx + 2h)``
    ndarray (``stack``) -- the structure-of-arrays layout every engine
    primitive runs on as single vectorized numpy calls.  The per-rank
    accessors return views of each block's own window into it.

    Attributes
    ----------
    decomp:
        The :class:`~repro.parallel.decomposition.Decomposition` this
        field is distributed over.
    stack:
        The backing ``(num_ranks, bny + 2h, bnx + 2h[, nrhs])`` ndarray.
    """

    def __init__(self, decomp, stack):
        self.decomp = decomp
        self.stack = stack

    @classmethod
    def zeros(cls, decomp, dtype=np.float64, nrhs=None):
        """A zero-valued block field over ``decomp``.

        ``nrhs`` adds a trailing batch axis so the field holds that many
        independent RHS columns (``None`` keeps the scalar 2-D layout).
        """
        h = decomp.halo_width
        bny, bnx = decomp.max_block_shape()
        trailing = () if nrhs is None else (int(nrhs),)
        stack = np.zeros(
            (decomp.num_active, bny + 2 * h, bnx + 2 * h) + trailing,
            dtype=dtype,
        )
        return cls(decomp, stack)

    @property
    def nrhs(self):
        """Trailing batch width, or ``None`` for a scalar 2-D field."""
        return self.stack.shape[3] if self.stack.ndim > 3 else None

    @property
    def locals_(self):
        """List indexed by rank of :meth:`local` views."""
        return [self.local(rank) for rank in range(self.decomp.num_active)]

    def local(self, rank):
        """View of ``rank``'s padded local array, shape
        ``(block.ny + 2h, block.nx + 2h[, nrhs])``."""
        h = self.decomp.halo_width
        block = self.decomp.active_blocks[rank]
        return self.stack[rank, :block.ny + 2 * h, :block.nx + 2 * h]

    def interior(self, rank):
        """View of ``rank``'s owned (non-halo) points."""
        h = self.decomp.halo_width
        block = self.decomp.active_blocks[rank]
        return self.stack[rank, h:h + block.ny, h:h + block.nx]

    def interior_stack(self):
        """View of all ranks' interior slots, shape ``(p, bny, bnx[, nrhs])``.

        On a ragged decomposition a smaller block's slot also covers
        part of its own halo ring and zero padding.
        """
        h = self.decomp.halo_width
        return self.stack[:, h:self.stack.shape[1] - h,
                          h:self.stack.shape[2] - h]

    def copy(self):
        """Deep copy of the block field."""
        return BlockField(self.decomp, self.stack.copy())


class HaloExchanger:
    """Fills halo rings of a :class:`BlockField` from neighboring blocks."""

    def __init__(self, decomp):
        self.decomp = decomp
        h = decomp.halo_width
        for block in decomp.active_blocks:
            if block.ny < h or block.nx < h:
                raise DecompositionError(
                    f"block {block.index} is {block.ny}x{block.nx}, smaller than "
                    f"the halo width {h}; choose fewer blocks or a thinner halo"
                )
        # Lazily-built gather/scatter index maps for the stacked
        # exchange, plus a reusable padded-global scratch buffer keyed
        # by dtype.
        self._stacked_maps = None
        self._padded_scratch = {}

    # ------------------------------------------------------------------
    def scatter(self, global_field, dtype=None):
        """Distribute a global ``(ny, nx[, nrhs])`` array into a BlockField.

        Halo rings are zero-initialized; call :meth:`exchange_stacked`
        to fill them.  A 3-D input distributes every RHS column at once
        into a trailing-axis field.
        """
        decomp = self.decomp
        if global_field.shape[:2] != (decomp.ny, decomp.nx):
            raise DecompositionError(
                f"field shape {global_field.shape} does not match grid "
                f"({decomp.ny}, {decomp.nx})"
            )
        nrhs = global_field.shape[2] if global_field.ndim == 3 else None
        field = BlockField.zeros(decomp, dtype=dtype or global_field.dtype,
                                 nrhs=nrhs)
        for rank, block in enumerate(decomp.active_blocks):
            field.interior(rank)[...] = global_field[block.slices]
        return field

    def gather(self, field, fill=0.0, dtype=None):
        """Reassemble a global array from block interiors.

        Points belonging to eliminated land blocks get ``fill``.
        """
        decomp = self.decomp
        out = np.full((decomp.ny, decomp.nx) + field.stack.shape[3:], fill,
                      dtype=dtype or field.stack.dtype)
        for rank, block in enumerate(decomp.active_blocks):
            out[block.slices] = field.interior(rank)
        return out

    # ------------------------------------------------------------------
    def _stacked_index_maps(self):
        """Flat index maps driving the stacked halo exchange.

        Returns ``(scatter_idx, gather_idx)`` into a flat scratch that
        holds the padded ``(ny + 2h, nx + 2h)`` global field followed by
        two spare cells, a *sink* and a *zero*:

        * ``scatter_idx`` -- shape ``(p, bny, bnx)``: for each cell of
          the interior slots, its global position, or the sink when the
          cell is not part of that block's interior (ragged padding).
        * ``gather_idx`` -- shape ``(p, bny + 2h, bnx + 2h)``: for each
          cell of the stack, its position in the padded global window
          of its block, or the zero cell when it lies outside that
          window.

        The zero cell is never written, so padding reads back as zero
        on every exchange.
        """
        if self._stacked_maps is None:
            decomp = self.decomp
            h = decomp.halo_width
            bny, bnx = decomp.max_block_shape()
            width = decomp.nx + 2 * h
            sink = (decomp.ny + 2 * h) * width
            zero = sink + 1
            p = decomp.num_active
            scatter_idx = np.full((p, bny, bnx), sink, dtype=np.intp)
            gather_idx = np.full((p, bny + 2 * h, bnx + 2 * h), zero,
                                 dtype=np.intp)
            for rank, block in enumerate(decomp.active_blocks):
                jj = np.arange(h + block.j0, h + block.j1)[:, None]
                ii = np.arange(h + block.i0, h + block.i1)[None, :]
                scatter_idx[rank, :block.ny, :block.nx] = jj * width + ii
                jj = np.arange(block.j0, block.j1 + 2 * h)[:, None]
                ii = np.arange(block.i0, block.i1 + 2 * h)[None, :]
                gather_idx[rank, :block.ny + 2 * h, :block.nx + 2 * h] = \
                    jj * width + ii
            self._stacked_maps = (scatter_idx, gather_idx)
        return self._stacked_maps

    def exchange_stacked(self, field):
        """Halo update of the whole stack: two fancy-indexing operations.

        One scatter of all interiors into a reused flat scratch and one
        gather of all padded windows out of it -- no per-rank loop.
        """
        decomp = self.decomp
        h = decomp.halo_width
        scatter_idx, gather_idx = self._stacked_index_maps()
        dtype = field.stack.dtype
        trailing = field.stack.shape[3:]
        key = (dtype.str, trailing)
        scratch = self._padded_scratch.get(key)
        if scratch is None:
            # Out-of-domain positions and the zero cell stay zero
            # forever: the scatter below only ever writes interior
            # positions and the sink, so the border ring (the closed
            # lateral boundary) never needs re-zeroing.
            scratch = np.zeros(
                ((decomp.ny + 2 * h) * (decomp.nx + 2 * h) + 2,) + trailing,
                dtype=dtype)
            self._padded_scratch[key] = scratch
        scratch[scatter_idx] = field.interior_stack()
        if scratch.ndim == 1:
            np.take(scratch, gather_idx, out=field.stack)
        else:
            # Trailing-axis batch: one axis-0 take moves every column's
            # halos at once.
            np.take(scratch, gather_idx, axis=0, out=field.stack)
        return field
