"""The arena channel stages both legs of a rank's messages in one region.

A rank's reply overwrites the command it has just consumed, in the same
``("field", rank)`` bytes of the :class:`ShmArena`.  These tests drive
two :class:`_ArenaChannel` ends — the driver's and the rank's — over one
in-process pipe and one arena, and check that nothing a rank can answer
corrupts the reply, including a view of its own input window.
"""

from __future__ import annotations

from multiprocessing import Pipe

import numpy as np
import pytest

from repro.comm.distributed import _ArenaChannel
from repro.comm.shm import FabricSpec, ShmArena, _plan_layout
from repro.utils.rng import make_rng

SPEC = FabricSpec(
    n_ranks=2, local_dims=(2, 2, 2, 4), partitioned=(0,), n_max=3, reduce_rows=4
)


@pytest.fixture
def ends():
    """The driver's and rank 1's ends of rank 1's channel."""
    arena = ShmArena(SPEC)
    a, b = Pipe()
    try:
        yield _ArenaChannel(a, arena, ("field", 1)), _ArenaChannel(b, arena, ("field", 1))
    finally:
        a.close()
        b.close()
        arena.close()
        arena.unlink()


def _field(dtype=np.complex128) -> np.ndarray:
    rng = make_rng(7)
    shape = (SPEC.n_max,) + SPEC.local_dims + (4, 3)
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_command_round_trips_bit_exact(ends, dtype):
    driver, rank = ends
    field = _field(dtype)
    driver.send(("apply", field, {"k": 1}))
    head, got, tail = rank.recv()
    assert (head, tail) == ("apply", {"k": 1})
    assert got.dtype == field.dtype and np.array_equal(got, field)


@pytest.mark.parametrize(
    "answer",
    [
        lambda w: w,  # the input window itself
        lambda w: w[::-1],  # reversed along the stack axis
        lambda w: w[:, :, ::-1, :, ::2],  # reversed and strided site axes
        lambda w: w[1:],  # shifted by one field inside the same bytes
        lambda w: w.astype(np.complex128) * 2,  # fresh and wider than its command
    ],
    ids=["window", "reversed", "strided", "shifted", "fresh"],
)
def test_reply_overwriting_its_command_arrives_bit_exact(ends, answer):
    driver, rank = ends
    field = _field(np.complex64)
    want = answer(field)
    driver.send(("op", field, None))
    _, window, _ = rank.recv()
    rank.send(("ok", answer(window), None))
    status, got, meta = driver.recv()
    assert (status, meta) == ("ok", None)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_layout_holds_one_field_region_per_rank():
    regions, _ = _plan_layout(SPEC)
    fields = sorted(key for key in regions if key[0] == "field")
    assert fields == [("field", r) for r in range(SPEC.n_ranks)]
    assert not [key for key in regions if key[0] in ("fin", "fout")]
    assert all(regions[key][1] == SPEC.field_nbytes for key in fields)
