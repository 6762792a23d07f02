"""Dslash kernels: the half-spinor kernel against the reference
stencil, and multi-RHS batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dirac import WilsonOperator, MobiusOperator
from repro.dirac import gamma as g
from repro.dirac.kernels import HalfSpinorKernel, ReferenceKernel, Workspace
from repro.lattice import GaugeField, Geometry
from repro.utils.rng import make_rng
from tests.conftest import random_fermion

#: the production kernel and its oracle, by their span names
KERNELS = {"halfspinor": HalfSpinorKernel, "reference": ReferenceKernel}


def _wilson(gauge, mass, kernel="halfspinor"):
    """A Wilson operator whose hopping term runs on the named kernel."""
    w = WilsonOperator(gauge, mass=mass)
    if kernel != "halfspinor":
        w.kernel = KERNELS[kernel](w.u, w.u_dag, w.geometry)
    return w


def test_operators_run_the_halfspinor_kernel(gauge_tiny):
    """Every operator runs the half-spinor kernel; a kernel's span name
    (``dslash.{name}``) is a class attribute."""
    assert type(WilsonOperator(gauge_tiny, mass=0.2).kernel) is HalfSpinorKernel
    mobius = MobiusOperator(gauge_tiny, mass=0.1, m5=1.4, ls=4)
    assert type(mobius.wilson.kernel) is HalfSpinorKernel
    assert all(cls.name == name for name, cls in KERNELS.items())


class TestBackendParity:
    """Both kernels obey the stencil's algebra; the half-spinor kernel
    reproduces the reference stencil bit-tight."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_hopping_matches_reference(self, gauge_tiny, rng, kernel):
        ref = _wilson(gauge_tiny, 0.2, "reference")
        alt = _wilson(gauge_tiny, 0.2, kernel)
        psi = random_fermion(rng, gauge_tiny.geometry.dims + (4, 3))
        np.testing.assert_allclose(
            alt.hopping(psi), ref.hopping(psi), rtol=1e-12, atol=1e-13
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_stack_matches_per_rhs(self, gauge_tiny, rng, kernel):
        w = _wilson(gauge_tiny, 0.2, kernel)
        stack = random_fermion(rng, (3,) + gauge_tiny.geometry.dims + (4, 3))
        batched = w.hopping(stack)
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], w.hopping(stack[i]), rtol=1e-12, atol=1e-13
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_gamma5_hermiticity(self, gauge_tiny, rng, kernel):
        w = _wilson(gauge_tiny, 0.3, kernel)
        shape = gauge_tiny.geometry.dims + (4, 3)
        psi, phi = random_fermion(rng, shape), random_fermion(rng, shape)
        lhs = np.vdot(phi, w.apply(psi))
        rhs = np.vdot(g.spin_mul(g.GAMMA5, w.apply(g.spin_mul(g.GAMMA5, phi))), psi)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_hopping_flips_checkerboard_parity(self, gauge_tiny, rng, kernel):
        w = _wilson(gauge_tiny, 0.2, kernel)
        geom = gauge_tiny.geometry
        even = geom.parity_mask(0)[..., None, None]
        psi = random_fermion(rng, geom.dims + (4, 3)) * even
        out = w.hopping(psi)
        np.testing.assert_allclose(out * even, 0.0, atol=1e-13)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_repeat_application_stable(self, gauge_tiny, rng, kernel):
        """Workspace buffer reuse must not leak state between calls."""
        w = _wilson(gauge_tiny, 0.2, kernel)
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


class TestTiledWorkspace:
    """The halfspinor stencil's RHS-tiled component-major workspace."""

    VOLUMES = ((4, 4, 4, 8), (8, 8, 8, 16))

    @staticmethod
    def _kernel(dims):
        gauge = GaugeField.random(Geometry(*dims), make_rng(3), scale=0.3)
        return WilsonOperator(gauge, mass=0.3).kernel

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
        return WilsonOperator(gauge, mass=0.3)

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
        w = _wilson(gauge_tiny, 0.2, "reference")
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
