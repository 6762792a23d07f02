"""Dslash kernel backends: registry, parity with the reference stencil,
multi-RHS batching, and autotuner-driven backend selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune import KernelAutotuner
from repro.dirac import WilsonOperator, MobiusOperator
from repro.dirac import gamma as g
from repro.dirac.kernels import (
    DEFAULT_BACKEND,
    Workspace,
    available_backends,
    dslash_tune_key,
    get_backend,
    make_kernel,
    register_backend,
    select_backend,
)
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng
from tests.conftest import random_fermion

BACKENDS = available_backends()


@pytest.fixture
def wilson(gauge_tiny):
    return WilsonOperator(gauge_tiny, mass=0.2, backend="reference")


class TestRegistry:
    def test_expected_backends_registered(self):
        assert {"reference", "halfspinor"} <= set(BACKENDS)

    def test_default_backend_is_registered(self):
        assert DEFAULT_BACKEND in BACKENDS

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown dslash backend"):
            get_backend("no-such-kernel")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference")(get_backend("reference"))

    def test_make_kernel_sets_name(self, gauge_tiny):
        w = WilsonOperator(gauge_tiny, mass=0.1, backend="reference")
        for name in BACKENDS:
            k = make_kernel(name, w.u, w.u_dag, w.geometry)
            assert k.name == name


class TestBackendParity:
    """Every backend must reproduce the reference stencil bit-tight."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hopping_matches_reference(self, gauge_tiny, rng, backend):
        ref = WilsonOperator(gauge_tiny, mass=0.2, backend="reference")
        alt = WilsonOperator(gauge_tiny, mass=0.2, backend=backend)
        psi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        np.testing.assert_allclose(
            alt.hopping(psi), ref.hopping(psi), rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batched_stack_matches_per_rhs(self, gauge_tiny, rng, backend):
        w = WilsonOperator(gauge_tiny, mass=0.2, backend=backend)
        stack = random_fermion(rng, (3,) + gauge_tiny.geometry.dims + (4, 3))
        batched = w.hopping(stack)
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], w.hopping(stack[i]), rtol=1e-12, atol=1e-13
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gamma5_hermiticity(self, gauge_tiny, rng, backend):
        w = WilsonOperator(gauge_tiny, mass=0.3, backend=backend)
        shape = gauge_tiny.geometry.dims + (4, 3)
        psi, phi = random_fermion(rng, shape), random_fermion(rng, shape)
        lhs = np.vdot(phi, w.apply(psi))
        rhs = np.vdot(g.spin_mul(g.GAMMA5, w.apply(g.spin_mul(g.GAMMA5, phi))), psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hopping_flips_checkerboard_parity(self, gauge_tiny, rng, backend):
        w = WilsonOperator(gauge_tiny, mass=0.2, backend=backend)
        geom = gauge_tiny.geometry
        even = geom.parity_mask(0)[..., None, None]
        psi = random_fermion(rng, geom.dims + (4, 3)) * even
        out = w.hopping(psi)
        np.testing.assert_allclose(out * even, 0.0, atol=1e-13)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeat_application_stable(self, gauge_tiny, rng, backend):
        """Workspace buffer reuse must not leak state between calls."""
        w = WilsonOperator(gauge_tiny, mass=0.2, backend=backend)
        psi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        first = w.hopping(psi)
        second = w.hopping(psi)
        np.testing.assert_array_equal(first, second)

    def test_mobius_batched_leading_axis(self, gauge_tiny, rng):
        m = MobiusOperator(gauge_tiny, mass=0.1, m5=1.4, ls=4)
        stack = random_fermion(rng, (2,) + m.field_shape)
        batched = m.apply(stack)
        for i in range(2):
            np.testing.assert_allclose(
                batched[i], m.apply(stack[i]), rtol=1e-12, atol=1e-13
            )


class TestBackendSwitching:
    def test_set_backend_switches_and_caches(self, gauge_tiny, rng):
        w = WilsonOperator(gauge_tiny, mass=0.2, backend="reference")
        psi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        ref_out = w.hopping(psi)
        w.set_backend("halfspinor")
        assert w.backend == "halfspinor"
        np.testing.assert_allclose(w.hopping(psi), ref_out, rtol=1e-12, atol=1e-13)
        first_instance = w.kernel
        w.set_backend("reference")
        w.set_backend("halfspinor")
        assert w.kernel is first_instance  # instances persist across switches

    def test_default_backend_without_tuner(self, gauge_tiny):
        w = WilsonOperator(gauge_tiny, mass=0.2)
        assert w.backend == DEFAULT_BACKEND

    def test_mobius_and_evenodd_delegate(self, gauge_tiny):
        m = MobiusOperator(gauge_tiny, mass=0.1, m5=1.4, ls=4, backend="reference")
        assert m.backend == "reference"
        m.set_backend("halfspinor")
        assert m.backend == "halfspinor"
        assert m.wilson.backend == "halfspinor"


class TestTiledWorkspace:
    """The halfspinor stencil's RHS-tiled component-major workspace."""

    VOLUMES = ((4, 4, 4, 8), (8, 8, 8, 16))

    @staticmethod
    def _kernel(dims):
        gauge = GaugeField.random(Geometry(*dims), make_rng(3), scale=0.3)
        return WilsonOperator(gauge, mass=0.3, backend="halfspinor").kernel

    @pytest.mark.parametrize("dims", VOLUMES)
    def test_stack_and_tile_invariance(self, rng, dims):
        """A column's result depends neither on the stack it rides in nor
        on where the tile boundaries fall (12 columns per tile at 4^3x8,
        one at 8^3x16): bit-equal to the one-column call."""
        kernel = self._kernel(dims)
        stack = random_fermion(rng, (13,) + dims + (4, 3))
        alone = [kernel.hopping(stack[i : i + 1])[0] for i in range(13)]
        for n in (1, 5, 12, 13):
            batched = kernel.hopping(stack[:n])
            for i in range(n):
                assert np.array_equal(batched[i], alone[i]), (n, i)

    @pytest.mark.parametrize("dims,slack", zip(VOLUMES, (2**20, -1)))
    def test_workspace_bounded_by_tile_not_stack(self, rng, dims, slack):
        """Against the untiled array-of-structures workspace this kernel
        replaced (four stack-wide half fields plus one colour plane):
        within 1 MiB of it at 4^3x8, below it at 8^3x16, 12 RHS."""
        kernel = self._kernel(dims)
        stack = random_fermion(rng, (12,) + dims + (4, 3))
        kernel.hopping(stack)
        untiled = stack[..., :2, :].nbytes * 4 + stack[..., :2, 0].nbytes
        assert kernel.workspace.nbytes <= untiled + slack


class TestComplex64Stencil:
    """Precision is a dtype of the one stencil: a complex64 field is
    computed on (and answered) in complex64, within single rounding of
    the complex128 result; complex128 stays the reference."""

    DIMS = (4, 6, 2, 8)

    @classmethod
    def _wilson(cls):
        gauge = GaugeField.random(Geometry(*cls.DIMS), make_rng(3), scale=0.3)
        return WilsonOperator(gauge, mass=0.3, backend="halfspinor")

    @staticmethod
    def _close(got, want):
        assert got.dtype == np.complex64
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_full_and_packed_hops_agree_with_double(self, rng):
        w = self._wilson()
        k = w.kernel
        psi = random_fermion(rng, (3,) + self.DIMS + (4, 3))
        psi32 = psi.astype(np.complex64)
        self._close(k.hopping(psi32), k.hopping(psi))
        self._close(w.apply_dagger(psi32), w.apply_dagger(psi))
        for parity in (0, 1):
            packed = k.pack(psi32, parity)
            assert packed.dtype == np.complex64
            self._close(
                w.hopping(packed, parity=parity), w.hopping(k.pack(psi, parity), parity=parity)
            )
        assert k.unpack(k.pack(psi32, 0), k.pack(psi32, 1)).dtype == np.complex64
        assert np.array_equal(k.unpack(k.pack(psi32, 0), k.pack(psi32, 1)), psi32)

    @pytest.mark.parametrize("parity", [None, 0, 1])
    def test_ghosts_and_site_boxes(self, rng, parity):
        """A box whose neighbour is itself: its own faces are its ghosts
        (exactly the periodic wrap), and a two-plane ``sites`` slab
        recomputes a boundary plane to the bit — in complex64 as in
        complex128 — with faces that travel in complex64."""
        k = self._wilson().kernel
        psi = random_fermion(rng, (2,) + self.DIMS + (4, 3)).astype(np.complex64)
        phi = psi if parity is None else k.pack(psi, parity)
        want = k.hopping(phi, parity=parity)
        for mu in (0, 1):
            ghosts = k.faces(phi, mu, parity)
            assert all(f.dtype == np.complex64 for f in ghosts.values())
            assert np.array_equal(k.hopping(phi, ghosts, parity=parity), want)
            box = (slice(None),) * (1 + mu) + (slice(0, 2),)
            slab = k.hopping(
                phi[box], {t: f[box] for t, f in ghosts.items()}, box[1:], parity
            )
            low = (slice(None),) * (1 + mu) + (slice(0, 1),)
            assert slab.dtype == np.complex64
            assert np.array_equal(slab[low], want[low])

    def test_multi_tile_stack_is_its_columns(self, rng, monkeypatch):
        """Tile boundaries (two complex64 columns per tile here) change no
        bit, as in complex128."""
        from repro.dirac.kernels import halfspinor

        k = self._wilson().kernel
        stack = random_fermion(rng, (5,) + self.DIMS + (4, 3)).astype(np.complex64)
        alone = [k.hopping(stack[i : i + 1])[0] for i in range(5)]
        monkeypatch.setattr(halfspinor, "TILE_BYTES", 2 * stack[0].nbytes)
        batched = k.hopping(stack)
        for i in range(5):
            assert np.array_equal(batched[i], alone[i]), i

    def test_kernels_without_a_complex64_path_stay_correct(self, gauge_tiny, rng):
        """The reference stencil multiplies by its double links whatever
        it is given: correct to single rounding, not faster, no
        capability flag."""
        psi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        w = WilsonOperator(gauge_tiny, mass=0.2, backend="reference")
        got, want = w.hopping(psi.astype(np.complex64)), w.hopping(psi)
        assert np.abs(got - want).max() <= 2e-6 * np.abs(want).max()


class TestWorkspace:
    def test_buffers_reused_by_shape(self):
        ws = Workspace()
        a = ws.get("tmp", (4, 3), np.complex128)
        b = ws.get("tmp", (4, 3), np.complex128)
        assert a is b
        c = ws.get("tmp", (2, 3), np.complex128)
        assert c is not a
        assert len(ws) == 2
        assert ws.nbytes > 0
        ws.clear()
        assert len(ws) == 0


class TestAutotunedSelection:
    def test_auto_selection_races_all_backends(self, gauge_tiny):
        tuner = KernelAutotuner(rng=0, launches_per_candidate=1)
        w = WilsonOperator(gauge_tiny, mass=0.2, backend="auto", tuner=tuner)
        assert w.backend in BACKENDS
        key = dslash_tune_key(gauge_tiny.geometry)
        assert tuner.backend_choice(key) == w.backend
        entry = tuner._backend_cache[key]
        assert entry.n_candidates == len(BACKENDS)
        assert set(entry.times) == set(BACKENDS)

    def test_second_operator_is_pure_lookup(self, gauge_tiny):
        tuner = KernelAutotuner(rng=0, launches_per_candidate=1)
        WilsonOperator(gauge_tiny, mass=0.2, backend="auto", tuner=tuner)
        calls = tuner.tune_calls
        w2 = WilsonOperator(gauge_tiny, mass=0.5, backend="auto", tuner=tuner)
        assert tuner.tune_calls == calls  # same volume: cache hit
        assert w2.backend in BACKENDS

    def test_choice_roundtrips_through_json_tunecache(self, gauge_tiny, tmp_path):
        tuner = KernelAutotuner(rng=0, launches_per_candidate=1)
        w = WilsonOperator(gauge_tiny, mass=0.2, backend="auto", tuner=tuner)
        path = tmp_path / "tunecache.json"
        tuner.save(path)

        fresh = KernelAutotuner(rng=1, launches_per_candidate=1)
        assert fresh.load(path) >= 1
        choice = select_backend(
            fresh, w.u, w.u_dag, gauge_tiny.geometry
        )
        assert choice == w.backend
        assert fresh.tune_calls == 0  # served entirely from the loaded cache

    def test_tune_key_encodes_volume_and_batch(self, gauge_tiny, geom_small):
        k1 = dslash_tune_key(gauge_tiny.geometry)
        k2 = dslash_tune_key(geom_small)
        k3 = dslash_tune_key(gauge_tiny.geometry, n_rhs=12)
        assert k1 != k2 and k1 != k3
        assert "nrhs=12" in k3.aux

    def test_tune_key_encodes_environment_and_storage(self, geom_tiny):
        from repro.dirac.kernels import NUMBA_AVAILABLE, SOA_LAYOUT_VERSION

        key = dslash_tune_key(geom_tiny)
        assert "dtype=complex128" in key.aux
        assert "storage=double" in key.aux
        assert f"numba={int(NUMBA_AVAILABLE)}" in key.aux
        assert f"soa=v{SOA_LAYOUT_VERSION}" in key.aux
        half = dslash_tune_key(geom_tiny, storage="half")
        assert "storage=half" in half.aux
        assert half != key

    def test_tune_key_encodes_decomposition(self, geom_tiny):
        """Distributed entries carry grid shape, halo policy and engine:
        a winner tuned on one decomposition never replays on another."""
        serial = dslash_tune_key(geom_tiny)
        dist = dslash_tune_key(
            geom_tiny, grid=(2, 2, 1, 1), policy="overlap", engine="compiled"
        )
        assert "grid=2x2x1x1" in dist.aux
        assert "policy=overlap" in dist.aux
        assert "engine=compiled" in dist.aux
        for fragment in ("grid=", "policy=", "engine="):
            assert fragment not in serial.aux
        other_grid = dslash_tune_key(
            geom_tiny, grid=(4, 1, 1, 1), policy="overlap", engine="compiled"
        )
        other_policy = dslash_tune_key(
            geom_tiny, grid=(2, 2, 1, 1), policy="blocking", engine="compiled"
        )
        other_engine = dslash_tune_key(
            geom_tiny, grid=(2, 2, 1, 1), policy="overlap", engine="interpreted"
        )
        assert len({dist, other_grid, other_policy, other_engine, serial}) == 5

    def test_tune_key_encodes_transport(self, geom_tiny):
        """A winner tuned under the shm transport never replays under
        MPI: halo-round costs differ, so the aux carries the transport
        (and the env fingerprint carries mpi4py availability)."""
        shm = dslash_tune_key(
            geom_tiny, grid=(2, 1, 1, 1), policy="blocking",
            engine="interpreted", transport="shm",
        )
        mpi = dslash_tune_key(
            geom_tiny, grid=(2, 1, 1, 1), policy="blocking",
            engine="interpreted", transport="mpi",
        )
        assert "transport=shm" in shm.aux
        assert "transport=mpi" in mpi.aux
        assert shm != mpi
        serial = dslash_tune_key(geom_tiny)
        assert "transport=" not in serial.aux
        assert "mpi4py=" in serial.aux  # env fingerprint rides along

    def test_transport_winner_not_replayed_across_transports(
        self, gauge_tiny, tmp_path
    ):
        """The cross-env replay contract for transports: record a
        backend choice under shm, reload in a fresh tuner — the same
        transport is a pure lookup, a different one re-races."""
        u = gauge_tiny.fermion_links(antiperiodic_t=True)
        u_dag = np.conjugate(np.swapaxes(u, -1, -2))
        geom = gauge_tiny.geometry

        def pick(tuner, transport):
            return select_backend(
                tuner, u, u_dag, geom, grid=(2, 1, 1, 1),
                policy="blocking", engine="interpreted", transport=transport,
            )

        tuner = KernelAutotuner(rng=0, launches_per_candidate=1)
        choice = pick(tuner, "shm")
        assert tuner.tune_calls == 1
        path = tmp_path / "tunecache.json"
        tuner.save(path)

        fresh = KernelAutotuner(rng=1, launches_per_candidate=1)
        assert fresh.load(path) >= 1
        assert pick(fresh, "shm") == choice
        assert fresh.tune_calls == 0  # same transport: replayed
        pick(fresh, "mpi")
        assert fresh.tune_calls == 1  # shm winner NOT replayed under mpi

    def test_cross_environment_replay_invalidated(
        self, gauge_tiny, tmp_path, monkeypatch
    ):
        """A winner raced *with* numba must not be replayed *without* it
        (and vice versa): flipping availability changes the tune key, so
        the loaded tunecache misses and the race reruns."""
        from repro.dirac.kernels import numba_soa

        tuner = KernelAutotuner(rng=0, launches_per_candidate=1)
        w = WilsonOperator(gauge_tiny, mass=0.2, backend="auto", tuner=tuner)
        path = tmp_path / "tunecache.json"
        tuner.save(path)

        fresh = KernelAutotuner(rng=1, launches_per_candidate=1)
        assert fresh.load(path) >= 1
        monkeypatch.setattr(
            numba_soa, "NUMBA_AVAILABLE", not numba_soa.NUMBA_AVAILABLE
        )
        choice = select_backend(fresh, w.u, w.u_dag, gauge_tiny.geometry)
        assert fresh.tune_calls == 1  # cache miss: re-raced, not replayed
        assert choice in available_backends()

    def test_verification_gates_promotion(self, gauge_tiny, monkeypatch):
        """A registered-but-wrong backend never wins the race, no matter
        how fast: the oracle gate drops it before timing."""
        from repro.dirac.kernels import registry
        from repro.dirac.kernels.reference import ReferenceKernel

        class Drifted(ReferenceKernel):
            name = "drifted"

            def hopping(self, phi):
                return 1.0001 * super().hopping(phi)

        monkeypatch.setitem(registry._REGISTRY, "drifted", Drifted)
        tuner = KernelAutotuner(rng=0, launches_per_candidate=1)
        w = WilsonOperator(gauge_tiny, mass=0.2, backend="auto", tuner=tuner)
        assert "drifted" in available_backends()
        assert w.backend != "drifted"
        key = dslash_tune_key(gauge_tiny.geometry)
        entry = tuner._backend_cache[key]
        assert "drifted" not in entry.times
