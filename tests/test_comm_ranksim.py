"""Distributed-stencil execution on 4D rank grids: exactness, wire
accounting, overlap structure.

First written against the seed-era in-process rank simulator
(``comm/ranksim.py``, deleted); every check now drives the *executed*
runtime — :class:`DistributedWilsonOperator` over worker threads and the
halo exchanger every transport shares — on grids that partition several
directions at once, t included.  The file keeps its name because these
test ids are part of the tier-1 floor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import DecompRuntime, DistributedWilsonOperator, RankGrid, halo_message_bytes
from repro.dirac import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng
from tests.conftest import random_fermion


@pytest.fixture(scope="module")
def setup():
    geom = Geometry(4, 4, 4, 8)
    gauge = GaugeField.random(geom, make_rng(5), scale=0.4)
    rng = make_rng(6)
    psi = rng.normal(size=geom.dims + (4, 3)) + 1j * rng.normal(size=geom.dims + (4, 3))
    ref = WilsonOperator(gauge, mass=0.2).apply(psi)
    return geom, gauge, psi, ref


def _traffic(gauge, grid, psi):
    """(messages, bytes) summed over ranks for one hopping of ``psi``."""
    with DistributedWilsonOperator(gauge, 0.2, grid=grid, timeout=60.0) as op:
        op.hopping(psi)
        stats = op.runtime.halo_stats()
    return sum(s["messages"] for s in stats), sum(s["bytes_sent"] for s in stats)


class TestDistributedWilson:
    # the 2-rank x slab, once grid1, is test_comm_distributed.py's
    # test_hopping_and_apply_bitwise; the other grids keep their ids
    @pytest.mark.parametrize(
        "grid",
        [(1, 1, 1, 2), (2, 2, 1, 2), (2, 2, 2, 2), (1, 1, 1, 4)],
        ids=["grid0", "grid2", "grid3", "grid4"],
    )
    def test_matches_single_rank_exactly(self, setup, grid):
        """Exact on any host: the rank stencil keeps the serial kernel's
        per-site operation chain and replaces only the data movement."""
        geom, gauge, psi, ref = setup
        with DistributedWilsonOperator(gauge, 0.2, grid=grid, timeout=60.0) as op:
            assert np.array_equal(op.apply(psi), ref)

    def test_wire_bytes_match_analytic_model(self, setup):
        """Measured exchanger traffic equals the perf model's prediction:
        spin-projected faces, 12 reals per face site per right-hand side."""
        geom, gauge, psi, ref = setup
        n = 3
        stack = np.stack([psi] * n)
        for grid in ((2, 1, 1, 2), (2, 2, 2, 2)):
            ranks = RankGrid.make(geom.dims, grid)
            want = n * sum(
                2 * ranks.n_ranks
                * halo_message_bytes(ranks.decomp, mu, ls=1, bytes_per_real=8.0)
                for mu in ranks.partitioned
            )
            messages, wire = _traffic(gauge, grid, stack)
            assert wire == want
            assert messages == 2 * len(ranks.partitioned) * ranks.n_ranks

    def test_message_count(self, setup):
        """Two hops x two partitioned-dim messages per rank per dim."""
        geom, gauge, psi, ref = setup
        ranks = RankGrid.make(geom.dims, (2, 2, 1, 1))
        messages, _ = _traffic(gauge, ranks.grid, psi)
        assert messages == 2 * len(ranks.partitioned) * ranks.n_ranks

    def test_scatter_gather_roundtrip(self, setup):
        geom, gauge, psi, ref = setup
        ranks = RankGrid.make(geom.dims, (2, 2, 1, 2))
        blocks = [psi[ranks.site_slices(r)] for r in range(ranks.n_ranks)]
        np.testing.assert_array_equal(ranks.gather(blocks), psi)

    def test_interior_fraction_shrinks_with_partitioning(self, setup):
        geom, gauge, psi, ref = setup
        f_t = RankGrid.make(geom.dims, (1, 1, 1, 2)).interior_fraction()
        f_all = RankGrid.make(geom.dims, (2, 2, 2, 2)).interior_fraction()
        assert f_t > f_all
        # local extent 2 in a partitioned dim leaves no interior at all —
        # nothing to overlap communication with (the strong-scaling wall).
        assert f_all == 0.0

    def test_interior_fraction_large_local_volume(self):
        # 8/2 = 4-wide local x: half the sites are interior in x.
        ranks = RankGrid.make((8, 4, 4, 8), (2, 1, 1, 1))
        assert ranks.interior_fraction() == pytest.approx(0.5)

    def test_antiperiodic_bc_preserved_across_ranks(self):
        """The time-direction sign lives in the links and survives the
        distribution: compare against the single-rank operator on a
        t-partitioned grid."""
        geom = Geometry(2, 2, 2, 8)
        gauge = GaugeField.random(geom, make_rng(8), scale=0.3)
        rng = make_rng(9)
        psi = random_fermion(rng, geom.dims + (4, 3))
        ref = WilsonOperator(gauge, mass=0.3).apply(psi)
        with DistributedWilsonOperator(gauge, 0.3, grid=(1, 1, 1, 4), timeout=60.0) as op:
            assert np.array_equal(op.apply(psi), ref)

    def test_invalid_grid_rejected(self, setup):
        geom, gauge, psi, ref = setup
        with pytest.raises(ValueError):
            DistributedWilsonOperator(gauge, 0.2, grid=(3, 1, 1, 1))  # 3 does not divide 4

    def test_bad_field_shape_rejected(self, setup):
        geom, gauge, psi, ref = setup
        with DistributedWilsonOperator(gauge, 0.2, grid=(2, 1, 1, 1), timeout=60.0) as op:
            with pytest.raises(ValueError):
                op.apply(np.zeros((2, 2, 2, 2, 4, 3), dtype=complex))


# -- minimal-overlap regime and the overlap precondition ----------------------

MASS = 0.12


def _background(dims, n_rhs=2, seed=21):
    geom = Geometry(*dims)
    gauge = GaugeField.random(geom, make_rng(seed), scale=0.35)
    rng = np.random.default_rng(5)
    shape = (n_rhs,) + geom.dims + (4, 3)
    return gauge, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("policy", ["blocking", "pairwise", "overlap"])
@pytest.mark.parametrize("n_rhs", [1, 12])
def test_extent_two_every_partitioned_axis(policy, n_rhs):
    """(4, 4, 2, 8) on a (2, 2, 1, 1) grid: local block (2, 2, 2, 8) —
    every partitioned axis sits at the minimal overlap-legal extent, so
    no site is interior and the boundary recompute does all the work.
    Both parities, 1 and 12 RHS, every policy."""
    gauge, psi = _background((4, 4, 2, 8), n_rhs=n_rhs)
    geom = gauge.geometry
    serial = WilsonOperator(gauge, MASS)
    with DistributedWilsonOperator(
        gauge, MASS, grid=(2, 2, 1, 1), policy=policy, max_rhs=n_rhs, timeout=60.0
    ) as op:
        for parity in (0, 1):
            x = psi * geom.parity_mask(parity)[..., None, None]
            got = np.array(op.hopping(x), copy=True)
            assert np.allclose(got, serial.hopping(x), rtol=1e-12, atol=1e-13)


def test_overlap_error_identical_both_paths():
    """One structured error, naming the offending axis, from the
    constructor and from ``set_policy`` alike."""
    gauge, _ = _background((8, 4, 2, 8))
    with pytest.raises(ValueError, match=r"offending axes: x \(extent 1\)") as ctor:
        DecompRuntime(gauge, MASS, ranks=8, policy="overlap")
    with DecompRuntime(gauge, MASS, ranks=8, policy="blocking") as rt:
        with pytest.raises(ValueError, match=r"offending axes: x \(extent 1\)") as setp:
            rt.set_policy("overlap")
        assert rt.policy == "blocking"  # failed switch leaves policy alone
        assert str(ctor.value) == str(setp.value)


def test_overlap_error_names_every_thin_axis():
    gauge, _ = _background((4, 4, 2, 8))
    with pytest.raises(ValueError) as exc:
        DecompRuntime(gauge, MASS, grid=(4, 4, 1, 1), policy="overlap")
    msg = str(exc.value)
    assert "x (extent 1)" in msg and "y (extent 1)" in msg
