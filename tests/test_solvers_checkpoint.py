"""Checkpoint/restart of the CG and reliable-update solvers.

The campaign runtime's fault tolerance rests on one property: a solve
resumed from a saved state is *bitwise identical* to the uninterrupted
solve — same iterates, same history, same final x.  These tests pin that
down on dense SPD systems (fast) before the runtime trusts it on Wilson
operators.
"""

from __future__ import annotations

import numpy as np

from repro.solvers import ConjugateGradient, ReliableUpdateCG
from repro.solvers.precision import PRECISIONS


def _spd_system(seed: int, n: int = 48, cond: float = 300.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, cond, n)
    a = (q * eigs) @ q.conj().T
    x_true = rng.normal(size=(n, 1, 1)) + 1j * rng.normal(size=(n, 1, 1))
    return a, x_true


def _matvec(a):
    return lambda v: (a @ v.reshape(len(a))).reshape(v.shape)


class TestCGCheckpoint:
    def test_checkpointing_does_not_perturb_solve(self):
        a, x_true = _spd_system(3)
        b = _matvec(a)(x_true)
        plain = ConjugateGradient(tol=1e-10, max_iter=500).solve(_matvec(a), b)
        states = []
        ckpt = ConjugateGradient(tol=1e-10, max_iter=500).solve(
            _matvec(a), b, checkpoint_every=5, on_checkpoint=states.append
        )
        assert states, "expected at least one checkpoint"
        assert np.array_equal(plain.x, ckpt.x)
        assert plain.iterations == ckpt.iterations
        assert plain.residual_history == ckpt.residual_history

    def test_resume_is_bitwise_identical(self):
        a, x_true = _spd_system(4)
        b = _matvec(a)(x_true)
        solver = ConjugateGradient(tol=1e-10, max_iter=500)
        ref = solver.solve(_matvec(a), b)

        states = []
        solver.solve(_matvec(a), b, checkpoint_every=7, on_checkpoint=states.append)
        assert len(states) >= 2
        resumed = solver.solve(_matvec(a), b, state=states[1])
        assert resumed.converged
        assert np.array_equal(ref.x, resumed.x)
        assert ref.iterations == resumed.iterations
        assert ref.residual_history == resumed.residual_history
        assert ref.final_relres == resumed.final_relres

    def test_resumed_solve_is_a_column_of_the_stacked_solve(self):
        """Scalar resume and the stacked core are one recurrence: a
        ``solve`` resumed from a checkpoint equals column *i* of the
        uninterrupted ``solve_batched`` (exact on any host)."""
        a, _ = _spd_system(11)
        rng = np.random.default_rng(12)
        n = len(a)
        stack = rng.normal(size=(3, n, 1, 1)) + 1j * rng.normal(size=(3, n, 1, 1))
        solver = ConjugateGradient(tol=1e-10, max_iter=500)
        # column-wise application, so the operator is the same call
        # sequence either way (a stacked GEMM would round differently)
        whole = solver.solve_batched(
            lambda v: np.stack([_matvec(a)(col) for col in v]), stack
        )
        assert whole.all_converged
        for i in (0, 2):
            states = []
            solver.solve(
                _matvec(a), stack[i], checkpoint_every=7, on_checkpoint=states.append
            )
            assert len(states) >= 2
            resumed = solver.solve(_matvec(a), stack[i], state=states[1])
            assert resumed.iterations == int(whole.column_iterations[i])
            assert np.array_equal(resumed.x, whole.x[i])

    def test_stacked_resume_is_bitwise_identical(self):
        """``solve_batched`` checkpoints and resumes in stacked form: a
        width-3 stack resumed from a mid-solve state is the
        uninterrupted stack, including the iteration count of a system
        that had frozen before the checkpoint was taken."""
        a, _ = _spd_system(13)
        rng = np.random.default_rng(14)
        n = len(a)
        stack = rng.normal(size=(3, n, 1, 1)) + 1j * rng.normal(size=(3, n, 1, 1))
        # system 1 lives in a 3-dimensional invariant subspace: it
        # converges in 3 iterations and rides along frozen afterwards
        vecs = np.linalg.eigh(a)[1]
        stack[1] = (vecs[:, [0, n // 2, n - 1]] @ np.array([1.0, 2.0, -1.0])).reshape(n, 1, 1)
        solver = ConjugateGradient(tol=1e-10, max_iter=500)
        matvec = lambda v: np.stack([_matvec(a)(col) for col in v])  # noqa: E731
        ref = solver.solve_batched(matvec, stack)
        assert ref.all_converged
        assert ref.column_iterations[1] < 7 < min(ref.column_iterations[[0, 2]])

        states = []
        ckpt = solver.solve_batched(
            matvec, stack, checkpoint_every=7, on_checkpoint=states.append
        )
        assert len(states) >= 2
        assert np.array_equal(ckpt.x, ref.x)
        for st in states[:2]:
            assert st.x.shape == stack.shape and st.rsq.shape == (3,)
            resumed = solver.solve_batched(matvec, stack, state=st)
            assert np.array_equal(resumed.x, ref.x)
            assert resumed.iterations == ref.iterations
            assert np.array_equal(resumed.column_iterations, ref.column_iterations)
            assert np.array_equal(resumed.final_relres, ref.final_relres)
            assert all(
                np.array_equal(h, g)
                for h, g in zip(resumed.residual_history, ref.residual_history, strict=True)
            )

    def test_checkpoint_state_is_a_snapshot(self):
        """Saved arrays must not alias the solver's live iterates."""
        a, x_true = _spd_system(6)
        b = _matvec(a)(x_true)
        states = []
        ConjugateGradient(tol=1e-10, max_iter=500).solve(
            _matvec(a), b, checkpoint_every=4, on_checkpoint=states.append
        )
        assert len(states) >= 2
        # Later iterations changed x; earlier snapshots must not have.
        assert not np.array_equal(states[0].x, states[-1].x)


class TestRUCGCheckpoint:
    def test_resume_is_bitwise_identical(self):
        a, x_true = _spd_system(7, cond=500.0)
        b = _matvec(a)(x_true)
        solver = ReliableUpdateCG(
            inner_precision=PRECISIONS["half"], tol=1e-9, max_iter=2000
        )
        ref = solver.solve(_matvec(a), b)

        states = []
        solver.solve(_matvec(a), b, checkpoint_every=10, on_checkpoint=states.append)
        assert states, "expected a reliable-update checkpoint"
        resumed = solver.solve(_matvec(a), b, state=states[0])
        assert resumed.converged
        assert np.array_equal(ref.x, resumed.x)
        assert ref.iterations == resumed.iterations

    def test_wilson_cgne_resume_bitwise(self, gauge_tiny):
        """The production path: checkpointed CGNE on the Wilson operator."""
        from repro.contractions import point_source
        from repro.dirac.wilson import WilsonOperator
        from repro.solvers import solve_normal_equations

        wilson = WilsonOperator(gauge_tiny, mass=0.3)
        b = point_source(gauge_tiny.geometry, (0, 0, 0, 0), 0, 0)
        solver = ConjugateGradient(tol=1e-8, max_iter=2000)
        ref = solve_normal_equations(wilson.apply, wilson.apply_dagger, b, solver)
        assert ref.converged

        states = []
        solve_normal_equations(
            wilson.apply,
            wilson.apply_dagger,
            b,
            solver,
            checkpoint_every=10,
            on_checkpoint=states.append,
        )
        assert states
        resumed = solve_normal_equations(
            wilson.apply, wilson.apply_dagger, b, solver, state=states[-1]
        )
        assert np.array_equal(ref.x, resumed.x)
        assert ref.iterations == resumed.iterations


class TestValidation:
    def test_checkpoint_every_requires_callback_noop(self):
        """checkpoint_every without a callback is a silent no-op."""
        a, x_true = _spd_system(10)
        b = _matvec(a)(x_true)
        res = ConjugateGradient(tol=1e-10).solve(_matvec(a), b, checkpoint_every=5)
        assert res.converged

