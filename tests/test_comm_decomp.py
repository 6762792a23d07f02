"""Rank geometry, site blocks/gather, and real halo exchange vs np.roll."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.comm.decomp import LocalGeometry, RankGrid, slab_grid
from repro.comm.exchange import HaloExchanger, face_index
from repro.comm.shm import FabricSpec, ThreadShared


class TestLocalGeometry:
    def test_odd_and_unit_extents_allowed(self):
        g = LocalGeometry(1, 3, 2, 8)
        assert g.dims == (1, 3, 2, 8)

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            LocalGeometry(0, 4, 4, 8)

    def test_origin_parity_folded(self):
        """A block at an odd origin sees globally-consistent parity."""
        even = LocalGeometry(4, 4, 4, 8, origin=(0, 0, 0, 0))
        odd = LocalGeometry(4, 4, 4, 8, origin=(1, 0, 0, 0))
        assert even._parity[0, 0, 0, 0] == 0
        assert odd._parity[0, 0, 0, 0] == 1
        assert np.array_equal(odd._parity, 1 - even._parity)

    def test_ghost_field_padding(self):
        g = LocalGeometry(4, 6, 2, 8)
        padded = g.ghost_field(partitioned=(0, 2), inner=(4, 3))
        assert padded.shape == (6, 6, 4, 8, 4, 3)
        interior = padded[g.interior_slices((0, 2))]
        assert interior.shape == (4, 6, 2, 8, 4, 3)


class TestRankGrid:
    def test_coords_roundtrip(self):
        grid = RankGrid.make((8, 8, 8, 16), (2, 1, 2, 2))
        for r in range(grid.n_ranks):
            assert grid.rank_id(grid.coords(r)) == r

    def test_neighbor_periodic(self):
        grid = RankGrid.make((8, 8, 8, 16), (4, 1, 1, 1))
        assert grid.neighbor(3, 0, +1) == 0
        assert grid.neighbor(0, 0, -1) == 3

    def test_scatter_gather_roundtrip_with_lead_axes(self):
        grid = RankGrid.make((4, 6, 2, 8), (2, 3, 1, 1))
        rng = np.random.default_rng(1)
        stack = rng.normal(size=(3, 4, 6, 2, 8, 4, 3))
        blocks = [stack[(slice(None),) + grid.site_slices(r)] for r in range(grid.n_ranks)]
        assert blocks[0].shape == (3, 2, 2, 2, 8, 4, 3)
        assert np.array_equal(grid.gather(blocks, site_axis=1), stack)

    def test_local_geometry_origin(self):
        grid = RankGrid.make((8, 8, 8, 16), (2, 1, 1, 2))
        assert grid.local_geometry(0).origin == (0, 0, 0, 0)
        assert grid.local_geometry(grid.n_ranks - 1).origin == (4, 0, 0, 8)

    def test_interior_fraction_shrinks_with_splits(self):
        one = RankGrid.make((8, 8, 8, 16), (2, 1, 1, 1))
        two = RankGrid.make((8, 8, 8, 16), (2, 2, 1, 1))
        assert two.interior_fraction() < one.interior_fraction()

    def test_slab_grid(self):
        assert slab_grid((8, 8, 8, 16), 4) == (4, 1, 1, 1)
        with pytest.raises(ValueError):
            slab_grid((8, 8, 8, 16), 3)


def _run_ranks(grid: RankGrid, fn):
    """Run ``fn(rank, fabric)`` collectively on one thread per rank."""
    spec = FabricSpec(
        n_ranks=grid.n_ranks,
        local_dims=grid.local_dims,
        partitioned=grid.partitioned,
        n_max=4,
        reduce_rows=grid.global_dims[0],
        timeout=30.0,
    )
    shared = ThreadShared(spec)
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def entry(r):
        try:
            results[r] = fn(r, shared.make_fabric(r))
        except BaseException as e:  # noqa: BLE001 - surfaced below
            errors.append(e)

    threads = [
        threading.Thread(target=entry, args=(r,)) for r in range(grid.n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    if errors:
        raise errors[0]
    return [results[r] for r in range(grid.n_ranks)]


@pytest.mark.parametrize(
    "grid_shape",
    [(2, 1, 1, 1), (1, 3, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2), (2, 3, 1, 2)],
)
def test_exchanged_halos_match_np_roll(grid_shape):
    """Exchanged ghost faces == what np.roll of the global field places
    there, in every partitioned direction on an asymmetric volume."""
    dims = (4, 6, 2, 8)
    grid = RankGrid.make(dims, grid_shape)
    rng = np.random.default_rng(7)
    phi = rng.normal(size=(2,) + dims + (4, 3)) + 1j * rng.normal(
        size=(2,) + dims + (4, 3)
    )
    blocks = [
        np.ascontiguousarray(phi[(slice(None),) + grid.site_slices(r)])
        for r in range(grid.n_ranks)
    ]

    def exchange(r, fabric):
        ex = HaloExchanger(fabric, grid, r)
        return ex.exchange_field(blocks[r], lead=1)

    ghosts = _run_ranks(grid, exchange)
    for r, got in enumerate(ghosts):
        lo = tuple(s.start for s in grid.site_slices(r))
        for mu in grid.partitioned:
            # +mu ghost: the global slice one past this block's high face
            fwd = np.roll(phi, -1, axis=1 + mu)
            assert np.array_equal(
                got[("f", mu)],
                np.ascontiguousarray(
                    fwd[(slice(None),) + grid.site_slices(r)][
                        face_index(mu, 1, lead=1)
                    ]
                ),
            )
            # -mu ghost: one before the low face
            bwd = np.roll(phi, +1, axis=1 + mu)
            assert np.array_equal(
                got[("b", mu)],
                np.ascontiguousarray(
                    bwd[(slice(None),) + grid.site_slices(r)][
                        face_index(mu, 0, lead=1)
                    ]
                ),
            )
        assert lo == tuple(
            c * L for c, L in zip(grid.coords(r), grid.local_dims)
        )


def test_exchange_counts_messages():
    dims = (4, 6, 2, 8)
    grid = RankGrid.make(dims, (2, 1, 1, 1))
    rng = np.random.default_rng(3)
    phi = rng.normal(size=dims + (4, 3)) + 0j
    blocks = [np.ascontiguousarray(phi[grid.site_slices(r)]) for r in range(grid.n_ranks)]

    def exchange(r, fabric):
        ex = HaloExchanger(fabric, grid, r)
        ex.exchange_field(blocks[r], lead=0)
        return (ex.rounds, ex.messages, ex.bytes_sent)

    stats = _run_ranks(grid, exchange)
    for rounds, messages, nbytes in stats:
        assert rounds == 1
        assert messages == 2  # one face each way along x
        assert nbytes == 2 * blocks[0][face_index(0, 0, lead=0)].nbytes
