"""Compressed-storage reliable-update CG: exact parity with dense.

The design invariant of ``ReliableUpdateCG(storage="compressed")`` is
that persisting the inner Krylov vectors as int16 handles changes the
*memory format* and nothing else: every float operation of the dense
half path is executed identically, so iterates, iteration counts and
final solutions agree bit for bit.  The guarantee is *exact on any
host*: the codec is data movement plus an elementwise chain, and the
two solves hand identical inputs to identical operations — the
``vdot``s included — so whatever BLAS computes them computes the same
thing twice.  (That is the stronger kind; rank- and transport-invariance
of a solve, where the reduction *order* is what is engineered, is
*deterministic, same host* — see ``comm/distributed.py``.)  These tests
assert exactly that —
on a planted hermitian operator, on the real Wilson normal equations,
in the batched path, and across a checkpoint/resume cycle — plus the
validation and footprint contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import WilsonOperator
from repro.lattice import GaugeField, Geometry
from repro.solvers import (
    DoublePrecision,
    HalfPrecision,
    ReliableUpdateCG,
    SinglePrecision,
)
from repro.solvers.cg import solve_normal_equations
from repro.utils.rng import make_rng


def _hpd(seed: int, n: int = 40):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a @ a.conj().T + 5.0 * np.eye(n)
    mv = lambda v: np.einsum("ij,j...->i...", a, v)
    mv_batched = lambda v: np.einsum("ij,kj...->ki...", a, v)
    b = rng.normal(size=(n, 4, 3)) + 1j * rng.normal(size=(n, 4, 3))
    return mv, mv_batched, b


def _solvers(**kw):
    dense = ReliableUpdateCG(HalfPrecision(), **kw)
    comp = ReliableUpdateCG(HalfPrecision(), storage="compressed", **kw)
    return dense, comp


class TestValidation:
    def test_unknown_storage_rejected(self):
        with pytest.raises(ValueError, match="dense.*compressed"):
            ReliableUpdateCG(HalfPrecision(), storage="sparse")

    @pytest.mark.parametrize("prec", [DoublePrecision(), SinglePrecision()])
    def test_compressed_requires_half_precision(self, prec):
        with pytest.raises(ValueError, match="requires a HalfPrecision"):
            ReliableUpdateCG(prec, storage="compressed")

    def test_dense_accepts_any_precision(self):
        for prec in (DoublePrecision(), SinglePrecision(), HalfPrecision()):
            ReliableUpdateCG(prec)  # no raise


class TestBitwiseParity:
    """Dense vs compressed: exact on any host (see the module docstring)."""

    def test_scalar_solve_identical(self):
        mv, _, b = _hpd(3)
        dense, comp = _solvers(tol=1e-10)
        rd, rc = dense.solve(mv, b), comp.solve(mv, b)
        assert rd.converged and rc.converged
        assert rd.iterations == rc.iterations
        assert rd.reliable_updates == rc.reliable_updates
        np.testing.assert_array_equal(rd.x, rc.x)
        assert rd.residual_history == rc.residual_history

    def test_batched_solve_identical(self):
        mv, mv_b, b = _hpd(4)
        stack = np.stack([b, 2.0 * b, b[::-1]])
        dense, comp = _solvers(tol=1e-10)
        rd, rc = dense.solve_batched(mv_b, stack), comp.solve_batched(mv_b, stack)
        assert bool(rd.all_converged) and bool(rc.all_converged)
        assert rd.iterations == rc.iterations
        np.testing.assert_array_equal(rd.x, rc.x)

    def test_nonzero_initial_guess_identical(self):
        mv, _, b = _hpd(5)
        x0 = 0.1 * b
        dense, comp = _solvers(tol=1e-10)
        np.testing.assert_array_equal(
            dense.solve(mv, b, x0).x, comp.solve(mv, b, x0).x
        )

    def test_checkpoint_resume_identical(self):
        mv, _, b = _hpd(6)
        dense, comp = _solvers(tol=1e-11, delta=0.3)
        full = comp.solve(mv, b)
        taken = []
        comp.solve(mv, b, checkpoint_every=5, on_checkpoint=taken.append)
        assert taken, "workload produced no reliable-update checkpoints"
        resumed = comp.solve(mv, b, state=taken[0])
        assert resumed.converged
        np.testing.assert_array_equal(resumed.x, full.x)
        np.testing.assert_array_equal(full.x, dense.solve(mv, b).x)


class TestWilsonNormalEquations:
    """The real operator path: D^H D on the tiny seeded background."""

    def test_converges_to_double_tolerance(self):
        geom = Geometry(2, 2, 2, 4)
        gauge = GaugeField.random(geom, make_rng(7), scale=0.1)
        wilson = WilsonOperator(gauge, mass=0.1)
        rng = make_rng(11)
        shape = geom.dims + (4, 3)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        dense, comp = _solvers(tol=1e-9, max_iter=5000)
        rd = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, dense)
        rc = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, comp)
        assert rd.converged and rc.converged
        # the post-solve true-residual recompute may jitter a hair above
        # the anchor that triggered convergence
        assert rc.final_relres <= 5e-9
        assert rd.iterations == rc.iterations
        np.testing.assert_array_equal(rd.x, rc.x)


class TestFootprint:
    def test_compressed_working_set_is_smaller(self):
        mv, _, b = _hpd(8)
        dense, comp = _solvers(tol=1e-8)
        dense.solve(mv, b)
        comp.solve(mv, b)
        assert comp._last_storage_nbytes > 0
        # three persisted vectors at ~4.33 B/component vs 16 B dense
        assert comp._last_storage_nbytes < 0.3 * dense._last_storage_nbytes
