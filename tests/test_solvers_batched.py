"""Multi-RHS lock-step solves: batched CG, batched CGNE, batched
reliable-update CG, and the column stacks every propagator solve runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contractions.propagator import (
    boundary_project,
    compute_propagator,
    compute_wilson_propagator,
    point_sources,
    point_sources_5d,
)
from repro.dirac import EvenOddMobius, MobiusOperator, WilsonOperator
from repro.solvers import (
    BatchedSolveResult,
    ConjugateGradient,
    HalfPrecision,
    ReliableUpdateCG,
    solve_normal_equations,
    solve_normal_equations_batched,
)
from tests.conftest import random_fermion


def _spd_system(seed: int, n: int = 30, cond: float = 100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.conj().T


def _batch_matvec(a):
    n = len(a)
    return lambda v: (v.reshape(-1, n) @ a.T).reshape(v.shape)


class TestBatchedCG:
    def test_matches_per_rhs_scalar_solves(self):
        a = _spd_system(0)
        rng = np.random.default_rng(1)
        k, n = 4, len(a)
        x_true = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        b = _batch_matvec(a)(x_true)
        solver = ConjugateGradient(tol=1e-12, max_iter=500)
        res = solver.solve_batched(_batch_matvec(a), b)
        assert isinstance(res, BatchedSolveResult)
        assert res.all_converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)
        for i in range(k):
            scalar = solver.solve(_batch_matvec(a), b[i : i + 1])
            np.testing.assert_allclose(res.x[i], scalar.x[0], atol=1e-8)

    def test_converged_is_per_rhs(self):
        """A hard system in the stack must not mask an easy one."""
        a = _spd_system(2, cond=1e8)
        rng = np.random.default_rng(3)
        n = len(a)
        b = rng.normal(size=(2, n)) + 0j
        res = ConjugateGradient(tol=1e-13, max_iter=4).solve_batched(
            _batch_matvec(a), b
        )
        assert res.converged.shape == (2,)
        assert not res.all_converged

    def test_zero_rhs_rows_converge_trivially(self):
        a = _spd_system(4)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(3, len(a))) + 0j
        b[1] = 0.0
        res = ConjugateGradient(tol=1e-10, max_iter=200).solve_batched(
            _batch_matvec(a), b
        )
        assert bool(res.converged[1])
        assert np.abs(res.x[1]).max() == 0.0
        assert bool(res.converged[0]) and bool(res.converged[2])

    def test_exact_x0_stack_converges_in_zero_iterations(self):
        a = _spd_system(6)
        rng = np.random.default_rng(7)
        x_true = rng.normal(size=(3, len(a))) + 0j
        b = _batch_matvec(a)(x_true)
        res = ConjugateGradient(tol=1e-10).solve_batched(
            _batch_matvec(a), b, x0=x_true
        )
        assert res.all_converged
        assert res.iterations == 0

    def test_split_gives_per_rhs_results(self):
        a = _spd_system(8)
        rng = np.random.default_rng(9)
        b = rng.normal(size=(2, len(a))) + 0j
        res = ConjugateGradient(tol=1e-10, max_iter=300).solve_batched(
            _batch_matvec(a), b
        )
        parts = res.split()
        assert len(parts) == 2
        for i, p in enumerate(parts):
            assert p.converged == bool(res.converged[i])
            np.testing.assert_array_equal(p.x, res.x[i])
            assert p.final_relres == float(res.final_relres[i])
            assert len(p.residual_history) == len(res.residual_history)

    def test_flop_accounting_scales_with_stack(self):
        a = _spd_system(10)
        rng = np.random.default_rng(11)
        k = 3
        b = rng.normal(size=(k, len(a))) + 0j
        solver = ConjugateGradient(
            tol=1e-10, max_iter=300, flops_per_matvec=100.0, blas_flops_per_iter=10.0
        )
        res = solver.solve_batched(_batch_matvec(a), b)
        expected = k * (res.iterations * 110.0 + 100.0)
        assert res.flops == pytest.approx(expected)


class TestBatchedCGNE:
    def test_nonhermitian_stack(self):
        rng = np.random.default_rng(12)
        n, k = 24, 3
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 4.0 * np.eye(n)
        x_true = rng.normal(size=(k, n)) + 0j
        b = (x_true @ a.T).reshape(k, n)
        res = solve_normal_equations_batched(
            _batch_matvec(a),
            _batch_matvec(a.conj().T),
            b,
            ConjugateGradient(tol=1e-12, max_iter=500),
        )
        assert res.all_converged
        np.testing.assert_allclose(res.x, x_true, atol=1e-7)
        assert np.all(res.final_relres < 1e-8)

    def test_reports_original_system_residual_per_rhs(self):
        rng = np.random.default_rng(13)
        n, k = 16, 2
        a = rng.normal(size=(n, n)) + 5.0 * np.eye(n) + 0j
        b = rng.normal(size=(k, n)) + 0j
        res = solve_normal_equations_batched(
            _batch_matvec(a),
            _batch_matvec(a.conj().T),
            b,
            ConjugateGradient(tol=1e-10, max_iter=300),
        )
        for i in range(k):
            direct = np.linalg.norm(b[i] - a @ res.x[i]) / np.linalg.norm(b[i])
            assert res.final_relres[i] == pytest.approx(direct, rel=1e-6)


class TestBatchedReliableUpdate:
    def test_converges_and_matches_scalar(self):
        a = _spd_system(14, cond=50.0)
        rng = np.random.default_rng(15)
        k = 3
        b = rng.normal(size=(k, len(a))) + 1j * rng.normal(size=(k, len(a)))
        solver = ReliableUpdateCG(
            inner_precision=HalfPrecision(), tol=1e-8, max_iter=2000
        )
        res = solver.solve_batched(_batch_matvec(a), b)
        assert res.all_converged
        assert res.reliable_updates >= 1
        assert np.all(res.final_relres <= 1e-8)
        scalar = solver.solve(_batch_matvec(a), b[0:1])
        np.testing.assert_allclose(res.x[0], scalar.x[0], atol=1e-6)

    def test_zero_stack_trivial(self):
        a = _spd_system(16)
        solver = ReliableUpdateCG(inner_precision=HalfPrecision(), tol=1e-8)
        res = solver.solve_batched(
            _batch_matvec(a), np.zeros((2, len(a)), dtype=complex)
        )
        assert res.all_converged
        assert res.iterations == 0


class TestPropagatorColumns:
    """Every library propagator is the column-stack path: a column is
    what its own one-column solve gives."""

    @staticmethod
    def _own_schur_solve(mobius, b, solver):
        """One 5D column through its own red-black solve: (x, iterations)."""
        eo = EvenOddMobius(mobius)
        res = solve_normal_equations(
            eo.schur_apply, eo.schur_dagger_apply, eo.prepare_rhs(b), solver
        )
        return eo.reconstruct(res.x, b), res.iterations

    @pytest.fixture(scope="class")
    def mobius_columns(self):
        """A Mobius operator on the tiny lattice, its solver and source
        site, and the 12 point-source columns each solved alone."""
        from repro.lattice import GaugeField, Geometry
        from repro.utils.rng import make_rng

        gauge = GaugeField.random(Geometry(2, 2, 2, 4), make_rng(12345), scale=0.4)
        m = MobiusOperator(gauge, ls=4, mass=0.3, m5=1.0)
        solver = ConjugateGradient(tol=1e-8, max_iter=2000)
        site = (0, 1, 0, 1)
        own = [self._own_schur_solve(m, b, solver) for b in point_sources_5d(m, site)]
        return m, solver, site, own

    def test_wilson_columns_equal_their_own_solves(self, gauge_tiny):
        """Exact on any host: the full operator's stack schedule changes
        which call computes a column, not one bit of it."""
        w = WilsonOperator(gauge_tiny, mass=0.3)
        solver = ConjugateGradient(tol=1e-9, max_iter=2000)
        site = (1, 0, 1, 2)
        prop, results = compute_wilson_propagator(w, site, solver)
        assert len(results) == 12
        for k, b in enumerate(point_sources(w.geometry, site)):
            alone = solve_normal_equations(w.apply, w.apply_dagger, b, solver)
            assert np.array_equal(prop.columns()[k], alone.x), f"column {k}"
            assert results[k].iterations == alone.iterations
            assert results[k].final_relres == alone.final_relres

    def test_mobius_propagator_matches_per_column_solves(self, mobius_columns):
        """Exact on any host: the packed 5D chain is elementwise along the
        stack axis (``A^{-1}`` an elementwise accumulate over ``s``, no
        BLAS contraction), so a stack rounds like each of its columns."""
        m, solver, site, own = mobius_columns
        prop, results = compute_propagator(m, site, solver)
        for k, (x, iterations) in enumerate(own):
            assert results[k].converged and results[k].iterations == iterations
            assert np.array_equal(results[k].x, x)
            assert np.array_equal(prop.columns()[k], boundary_project(x))

    def test_fh_mobius_pair_matches_per_column_solves(self, mobius_columns):
        """Two stacked solves; column k's FH source is ``Gamma_5D`` of its
        own 5D solution, so each column equals, to the bit, its pair of
        one-column solves (standard, then FH)."""
        from repro.core.feynman_hellmann import AxialInsertion5D, compute_fh_mobius_pair

        m, solver, site, own = mobius_columns
        u, u_fh, stats = compute_fh_mobius_pair(m, site, solver)
        assert len(stats) == 24
        for k, (x, iterations) in enumerate(own):
            x_fh, iterations_fh = self._own_schur_solve(m, AxialInsertion5D().apply(x), solver)
            assert (stats[k].iterations, stats[12 + k].iterations) == (iterations, iterations_fh)
            assert np.array_equal(u.columns()[k], boundary_project(x))
            assert np.array_equal(u_fh.columns()[k], boundary_project(x_fh))

    def test_wall_helpers_act_field_by_field_on_a_stack(self, gauge_tiny, rng):
        """The 5D insertion and the wall projection index the fifth
        dimension (``MobiusOperator.S_AXIS``), not the stack axis."""
        from repro.core.feynman_hellmann import AxialInsertion5D

        m = MobiusOperator(gauge_tiny, ls=4, mass=0.1)
        psi = random_fermion(rng, (3,) + m.field_shape)
        ins = AxialInsertion5D()
        for f in (ins.apply, ins.apply_dagger, boundary_project):
            want = np.stack([f(p) for p in psi])
            np.testing.assert_allclose(f(psi), want, rtol=0, atol=1e-15 * np.abs(want).max())

    def test_the_solver_type_decides_the_sequential_system(self, gauge_tiny):
        """``mode`` names a stack width and nothing else (``"block"`` is
        not one), the solver names the algorithm, and the system is
        always the red-black one: ``"batched"`` with a ``BlockCG`` is
        one 12-wide block solve of ``SchurColumnStacks``, bit for bit,
        and ``"percolumn"`` runs it on budget-width Schur stacks."""
        from repro.contractions import SchurColumnStacks, sequential_propagator
        from repro.dirac import gamma as g
        from repro.solvers.blockcg import BlockCG

        w = WilsonOperator(gauge_tiny, mass=0.3)
        solver = ConjugateGradient(tol=1e-9, max_iter=2000)
        prop, _ = compute_wilson_propagator(w, solver=solver)
        t_snk = 2
        with pytest.raises(ValueError, match="unknown sequential solve mode"):
            sequential_propagator(w, prop, t_snk, solver, mode="block")

        cols = prop.columns()
        b = np.zeros_like(cols)
        b[:, :, :, :, t_snk] = cols[:, :, :, :, t_snk]
        block = BlockCG(tol=1e-9, max_iter=2000)
        ((_, want),) = SchurColumnStacks(w, g.gamma5_mul(b), 12).solve(block)
        stats: dict = {}
        seq = sequential_propagator(w, prop, t_snk, block, mode="batched", stats=stats)
        assert np.array_equal(seq.columns(), g.gamma5_mul(want.x))
        assert stats["iterations"] == want.iterations

        stats = {}
        narrow = sequential_propagator(w, prop, t_snk, block, mode="percolumn", stats=stats)
        assert stats["iterations"] >= want.iterations  # a column counts its stack's iterations
        assert stats["true_relres"] <= 10 * block.tol
        scale = np.abs(seq.data).max()
        np.testing.assert_allclose(narrow.data, seq.data, rtol=0, atol=1e-6 * scale)


class TestPerColumnIterations:
    def test_split_reports_the_one_at_a_time_counts(self):
        """On the golden's seeded 4^3x8 operator at tol 1e-10, each column
        of the two 12-wide Feynman-Hellmann stacks freezes at exactly the
        iteration its own ``solve()`` stops at, and the 24 counts add up
        to the golden's pinned ``solver_iterations``."""
        from repro.contractions.propagator import point_source
        from repro.core.feynman_hellmann import AxialInsertion4D
        from repro.lattice import GaugeField, Geometry
        from repro.solvers import solve_normal_equations
        from repro.utils.rng import make_rng
        from tests.data import regenerate_golden as golden

        geom = Geometry(*golden.DIMS)
        gauge = GaugeField.random(geom, make_rng(golden.SEED), scale=golden.SCALE)
        w = WilsonOperator(gauge, mass=golden.MASS)
        solver = ConjugateGradient(tol=golden.TOL)
        stack = np.stack(
            [point_source(geom, (0, 0, 0, 0), s, c) for s in range(4) for c in range(3)]
        )
        total = 0
        for _ in range(2):  # propagator stack, then its FH stack
            res = solve_normal_equations_batched(w.apply, w.apply_dagger, stack, solver)
            batched = [r.iterations for r in res.split()]
            alone = [
                solve_normal_equations(w.apply, w.apply_dagger, b, solver) for b in stack
            ]
            assert batched == [r.iterations for r in alone]
            assert res.iterations == max(batched)
            # one recurrence, one reducer: a column of the stack is its
            # own one-column solve, exact on any host
            for i, r in enumerate(alone):
                assert np.array_equal(res.x[i], r.x), f"column {i}"
            total += sum(batched)
            stack = AxialInsertion4D().apply(res.x)
        assert min(batched) < max(batched)  # the FH columns do not freeze together
        with np.load(golden.GOLDEN) as f:
            assert total == int(f["solver_iterations"])

    def test_reliable_update_solve_is_the_width_one_stack(self, gauge_tiny):
        """``ReliableUpdateCG.solve`` is the width-1 call of the stacked
        cycle: same iterates, same update schedule, same bits (exact on
        any host; wider stacks synchronize their reliable updates, so
        only width 1 is comparable column by column)."""
        from repro.contractions.propagator import point_source

        w = WilsonOperator(gauge_tiny, mass=0.3)
        solver = ReliableUpdateCG(HalfPrecision(), tol=1e-8, max_iter=2000)
        for spin, color in ((0, 0), (3, 2)):
            rhs = w.apply_dagger(point_source(gauge_tiny.geometry, (0, 0, 0, 0), spin, color))
            alone = solver.solve(w.apply_normal, rhs)
            stacked = solver.solve_batched(w.apply_normal, rhs[None])
            assert alone.converged and alone.reliable_updates >= 1
            assert stacked.iterations == alone.iterations
            assert stacked.reliable_updates == alone.reliable_updates
            assert np.array_equal(stacked.x[0], alone.x)


class TestColumnStacks:
    """``solve_column_stacks``: independent per-column Krylov spaces,
    scheduled a budgeted number of columns at a time."""

    def test_width_rule(self):
        from repro.contractions import stack_width

        column = lambda *dims: int(np.prod(dims)) * 12 * 16  # noqa: E731  complex128 bytes
        assert stack_width(column(4, 4, 4, 8)) == 3
        assert stack_width(column(8, 8, 8, 16)) == 1
        assert stack_width(column(2, 2, 2, 4)) == 12
        for sites in (1, 7, 64, 256, 500, 512, 700, 1024, 4096, 1 << 20):
            w = stack_width(sites * 192)
            assert w >= 1 and 12 % w == 0
            assert w == 1 or w * 12 * sites * 192 <= 4 << 20

    @pytest.fixture(scope="class")
    def golden_wilson(self):
        from repro.lattice import GaugeField, Geometry
        from repro.utils.rng import make_rng
        from tests.data import regenerate_golden as golden

        geom = Geometry(*golden.DIMS)
        gauge = GaugeField.random(geom, make_rng(golden.SEED), scale=golden.SCALE)
        return WilsonOperator(gauge, mass=golden.MASS)

    def test_columns_equal_their_own_solves_on_the_golden_workload(self, golden_wilson):
        """Exact on any host, for propagator sources and for the
        sequential (through-the-sink) sources built from the result: the
        stack schedule changes which call computes a column, not one bit
        of it.  The system is the red-black preconditioned one the
        executor runs; its solution is the full operator's to the
        tolerance that defines either (portable)."""
        from repro.contractions import Propagator, SchurColumnStacks, sequential_propagator
        from repro.contractions.propagator import point_source
        from repro.dirac import gamma as g
        from repro.solvers import solve_normal_equations

        w = golden_wilson
        geom = w.geometry
        tol = 1e-8
        solver = ConjugateGradient(tol=tol, max_iter=4000)

        def own_solves(b):
            """Each column through its own one-column solves: the Schur
            system's (iterations, full-lattice x) and the full operator's x."""
            system = SchurColumnStacks(w, b)
            eo = system.eo
            for i in range(12):
                alone = solve_normal_equations(
                    eo.schur_apply, eo.schur_dagger_apply, system.rhs[i], solver
                )
                full = solve_normal_equations(w.apply, w.apply_dagger, b[i], solver)
                yield alone.iterations, eo.reconstruct(alone.x[None], b[i : i + 1])[0], full.x

        sources = np.stack(
            [point_source(geom, (0, 0, 0, 0), s, c) for s in range(4) for c in range(3)]
        )
        system = SchurColumnStacks(w, sources)
        assert system.stack_shape == (6,) + geom.dims[:3] + (geom.lt // 2, 4, 3)
        alone = list(own_solves(sources))
        data = np.zeros(geom.dims + (4, 4, 3, 3), dtype=np.complex128)
        seen = []
        for lo, res in system.solve(solver):
            assert res.n_rhs == 6 and res.all_converged
            seen.append(lo)
            for i in range(res.n_rhs):
                iterations, x, x_full = alone[lo + i]
                assert np.array_equal(res.x[i], x), f"column {lo + i}"
                assert int(res.column_iterations[i]) == iterations
                scale = np.abs(x_full).max()
                assert np.allclose(res.x[i], x_full, rtol=10 * tol, atol=10 * tol * scale)
                spin, color = divmod(lo + i, 3)
                data[..., :, spin, :, color] = res.x[i]
        assert seen == [0, 6]

        prop = Propagator(data, (0, 0, 0, 0))
        t_snk = geom.lt // 2
        stats: dict = {}
        seq = sequential_propagator(w, prop, t_snk, solver=solver, stats=stats)
        restricted = np.zeros_like(data)
        restricted[:, :, :, t_snk] = data[:, :, :, t_snk]
        b_seq = np.stack(
            [g.gamma5_mul(restricted[..., :, s, :, c]) for s in range(4) for c in range(3)]
        )
        total = 0
        for col, (iterations, x, x_full) in enumerate(own_solves(b_seq)):
            spin, color = divmod(col, 3)
            total += iterations
            got = seq.data[..., :, spin, :, color]
            assert np.array_equal(got, g.gamma5_mul(x))
            scale = np.abs(x_full).max()
            assert np.allclose(got, g.gamma5_mul(x_full), rtol=10 * tol, atol=10 * tol * scale)
        assert stats["iterations"] == total
        assert stats["true_relres"] <= 10 * tol

    def test_resumes_mid_stack_bitwise(self, golden_wilson):
        """Kill inside the second stack: the finished stack is kept, the
        stack in flight resumes from its stacked state, same bits."""
        from repro.contractions import solve_column_stacks
        from repro.contractions.propagator import point_source

        w = golden_wilson
        solver = ConjugateGradient(tol=1e-6, max_iter=4000)
        sources = np.stack(
            [point_source(w.geometry, (0, 0, 0, 0), s, c) for s in range(2) for c in range(3)]
        )
        ref = dict(solve_column_stacks(w.apply, w.apply_dagger, sources, solver))
        assert sorted(ref) == [0, 3]

        saved = []
        dict(solve_column_stacks(
            w.apply, w.apply_dagger, sources, solver,
            checkpoint_every=10, on_checkpoint=lambda lo, st: saved.append((lo, st)),
        ))
        lo, st = next((lo, st) for lo, st in saved if lo == 3)
        assert st.x.shape == (3,) + sources.shape[1:] and st.iteration == 10
        resumed = dict(solve_column_stacks(
            w.apply, w.apply_dagger, sources, solver, start=lo, state=st
        ))
        assert sorted(resumed) == [3]
        assert np.array_equal(resumed[3].x, ref[3].x)
        assert np.array_equal(resumed[3].column_iterations, ref[3].column_iterations)

        with pytest.raises(ValueError, match="not a boundary"):
            next(solve_column_stacks(w.apply, w.apply_dagger, sources, solver, start=2))


class TestSchurColumnStacks:
    """``SchurColumnStacks``: the executor's propagator and sequential
    solves run the red-black preconditioned system, and the serial
    instance of it is the 1-rank case of the rank program's solve."""

    @pytest.fixture(scope="class")
    def golden(self):
        from repro.contractions.propagator import point_source
        from repro.lattice import GaugeField, Geometry
        from repro.utils.rng import make_rng
        from tests.data import regenerate_golden as golden

        geom = Geometry(*golden.DIMS)
        gauge = GaugeField.random(geom, make_rng(golden.SEED), scale=golden.SCALE)
        points = np.stack(
            [point_source(geom, (0, 0, 0, 0), s, c) for s in range(4) for c in range(3)]
        )
        return gauge, golden.MASS, points

    @staticmethod
    def _sink_sources(points, x):
        """Through-the-sink sources from a solved point-source stack."""
        from repro.dirac import gamma as g

        t_snk = points.shape[4] // 2
        restricted = np.zeros_like(x)
        restricted[:, :, :, :, t_snk] = x[:, :, :, :, t_snk]
        return g.gamma5_mul(restricted)

    def test_serial_is_the_one_rank_case(self, golden):
        """*Deterministic, same host.*  Run on the rank program's reducer
        (per-x-slice partials summed in a fixed order), the serial packed
        chain gives the bits ``DecompRuntime.solve_cgne`` gives on 1 and
        2 ranks; on its own reducer (rows of ``np.vdot`` — what makes a
        column of a stack its one-column solve on any host) the 12-wide
        stack takes the same iterations and differs by rounding only."""
        from repro.comm.distributed import DecompRuntime
        from repro.contractions import SchurColumnStacks

        gauge, mass, b = golden
        tol = 1e-8
        system = SchurColumnStacks(WilsonOperator(gauge, mass=mass), b, 12)
        assert system.stack_shape[0] == 12
        eo = system.eo

        def slice_dot(u, v):
            rows = [[np.vdot(u[i, j], v[i, j]).real for i in range(len(u))]
                    for j in range(u.shape[1])]
            return np.sum(np.array(rows), axis=0)

        on_slices = ConjugateGradient(tol=tol, max_iter=10_000)._run(
            eo.schur_normal_apply, eo.schur_dagger_apply(system.rhs), dot=slice_dot
        )
        ((lo, own),) = system.solve(ConjugateGradient(tol=tol, max_iter=10_000))
        assert lo == 0 and own.all_converged
        for ranks in (1, 2):
            rt = DecompRuntime(gauge, mass, ranks=ranks, transport="threads")
            try:
                dist = rt.solve_cgne(b, tol=tol, reliable=False)
            finally:
                rt.close()
            assert np.array_equal(dist.x, eo.reconstruct(on_slices.x, b))
            for res in (on_slices, own):
                assert dist.iterations == res.iterations
                assert np.array_equal(dist.column_iterations, res.column_iterations)
            assert np.allclose(own.x, dist.x, rtol=0, atol=1e-12 * np.abs(dist.x).max())

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    def test_true_residual_of_the_full_system(self, golden, tol):
        """Convergence is judged on the even-site normal system; what the
        caller is owed is ``|b - D x| / |b|`` on the full operator."""
        from repro.contractions import SchurColumnStacks, column_relres

        gauge, mass, points = golden
        w = WilsonOperator(gauge, mass=mass)
        solver = ConjugateGradient(tol=tol, max_iter=4000)
        b = points
        for kind in ("point", "sequential"):
            x = np.empty_like(b)
            for lo, res in SchurColumnStacks(w, b).solve(solver):
                assert res.all_converged
                x[lo : lo + res.n_rhs] = res.x
                # reported = recomputed, per column
                assert np.array_equal(
                    res.final_relres, column_relres(w.apply, b[lo : lo + res.n_rhs], res.x)
                )
            assert column_relres(w.apply, b, x).max() <= 10 * tol, kind
            b = self._sink_sources(points, x)

    def test_masked_chain_matches_the_packed_stacks(self, golden):
        """The same red-black chain on masked full-lattice fields
        (:class:`EvenOddWilson`) is the packed stacks' system: stacks
        twice the size, the same column iterations, the answer the same
        to tolerance."""
        from repro.contractions import SchurColumnStacks, column_relres, solve_column_stacks
        from repro.dirac import EvenOddWilson

        gauge, mass, b = golden
        tol = 1e-8
        solver = ConjugateGradient(tol=tol, max_iter=4000)
        w = WilsonOperator(gauge, mass=mass)
        packed = SchurColumnStacks(w, b[:3])
        eo = EvenOddWilson(w)
        rhs = eo.prepare_rhs(b[:3])
        assert packed.stack_shape == (3,) + b.shape[1:4] + (b.shape[4] // 2, 4, 3)
        assert rhs.shape == (3,) + b.shape[1:]
        ((_, got),) = solve_column_stacks(eo.schur_apply, eo.schur_dagger_apply, rhs, solver)
        ((_, want),) = packed.solve(solver)
        x = eo.reconstruct(got.x, b[:3])
        assert got.all_converged
        assert column_relres(w.apply, b[:3], x).max() <= 10 * tol
        assert np.array_equal(got.column_iterations, want.column_iterations)
        assert np.allclose(x, want.x, rtol=0, atol=10 * tol * np.abs(want.x).max())

    def test_resumes_mid_stack_bitwise(self, golden):
        """Width 6, killed inside the second stack: from a *dense* state
        (every column still live) and from a *half-finished* one (the
        quick columns frozen, the rest in flight) the resumed stack is
        the uninterrupted one to the bit, reconstruction included."""
        from repro.contractions import SchurColumnStacks

        gauge, mass, points = golden
        w = WilsonOperator(gauge, mass=mass)
        # second stack: three wall sources (slow) and three point sources
        wall = np.zeros((3,) + points.shape[1:], dtype=np.complex128)
        for c in range(3):
            wall[c, ..., 0, c] = 1.0
        b = np.concatenate([points[:6], wall, points[9:]])
        solver = ConjugateGradient(tol=1e-6, max_iter=4000)
        system = SchurColumnStacks(w, b)
        assert system.stack_shape[0] == 6
        ref = dict(system.solve(solver))
        assert sorted(ref) == [0, 6]
        iters = ref[6].column_iterations
        assert iters[3:].max() + 1 < iters[:3].min()

        saved = []
        dict(system.solve(solver, checkpoint_every=1,
                          on_checkpoint=lambda lo, st: saved.append((lo, st))))
        second = [st for lo, st in saved if lo == 6]
        dense = next(st for st in second if st.iteration == 5)
        half = next(st for st in second if st.iteration == iters[3:].max() + 1)
        assert (dense.column_iterations == 5).all()
        assert (half.column_iterations[3:] < half.iteration).all()
        assert (half.column_iterations[:3] == half.iteration).all()
        for st in (dense, half):
            assert st.x.shape == system.stack_shape
            resumed = dict(SchurColumnStacks(w, b).solve(solver, start=6, state=st))
            assert sorted(resumed) == [6]
            assert np.array_equal(resumed[6].x, ref[6].x)
            assert np.array_equal(resumed[6].column_iterations, iters)
            assert np.array_equal(resumed[6].final_relres, ref[6].final_relres)
