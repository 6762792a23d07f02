"""Rank-parallel Wilson/even-odd dslash and CG over executed transports.

One worker per rank runs the *same* program (`worker_main`) against a
:class:`~repro.comm.shm.Fabric`; the driver (`DecompRuntime`) scatters
global fields into per-rank blocks, broadcasts commands, and gathers the
results.  The facades at the bottom (:class:`DistributedWilsonOperator`,
:class:`DistributedEvenOddOperator`, :class:`DistributedCG`) mirror the
serial operator/solver APIs.

Reproducibility: two guarantees, of two kinds
---------------------------------------------
Both are engineered in, and the test suite pins both:

* **Dslash equals the serial kernels for any rank grid — exact on any
  host.**  NumPy elementwise kernels are per-element deterministic
  regardless of array shape, so the distributed stencil preserves the
  serial half-spinor kernel's exact per-site operation chain (project ->
  shift -> color multiply -> scale -> accumulate, forward then backward
  in direction order) and replaces only the *data movement*: a local
  periodic roll whose wrapped face is overwritten with the fetched halo
  yields the same bytes `np.roll` produces globally.  No reduction is
  involved, so the identity holds whatever BLAS numpy was built on.
* **The solvers are invariant under the rank count and the transport
  (1-rank runtime included) — deterministic, same host.**  The Krylov
  recurrence is the serial solvers' own (:func:`rank_solve` hands
  ``ConjugateGradient._run`` / ``ReliableUpdateCG._run`` a collective
  inner product); global inner products are computed as
  per-global-slice partial sums deposited into one shared table and
  reduced in a fixed global order on every rank (:class:`SliceReducer`
  + ``Fabric.allreduce_rows``) — never as a rank-count-dependent tree.
  Slab grids along the reduction axis keep each slice's partial within
  one rank, so the partials themselves are decomposition-invariant.
  This holds for any BLAS, but each slice partial is a ``vdot``, so the
  bits differ between BLAS builds: compare runs on one host.

The rank-side Schur operators additionally take distributed-only
shortcuts that the serial mirror methods do not (``gamma_5`` as a
diagonal sign flip, checkerboard restriction elided where inputs are
even-checkerboard-pure, in-place axpys); these change no values — signs
and masks are exact in floating point — and the cross-rank-count tests
run through them.

Where the grid allows it (t unpartitioned, all global extents even) the
solve further runs on checkerboard-*packed* half-volume fields
(:class:`CBStencil`/:class:`CBEvenOdd`): Schur vectors occupy one parity
only, so packing halves the sites every hot kernel pass touches — the
dominant single-process win of this runtime, mirroring QUDA's
half-lattice preconditioned dslash.  Packing is pure data movement
(exact on any host), so the packed pipeline keeps the rank-count
invariance.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import replace

import numpy as np

from repro import obs
from repro.comm.decomp import LocalGeometry, RankGrid, slab_grid
from repro.comm.exchange import EXECUTED_POLICIES, HaloExchanger, face_index
from repro.comm.shm import (
    FabricSpec,
    Fabric,
    ShmArena,
    ShmFabric,
    ThreadShared,
    spawn_context,
)
from repro.dirac.gamma import gamma5_mul
from repro.dirac.kernels import make_kernel
from repro.dirac.kernels.base import roll_into
from repro.dirac.kernels.halfspinor import _BWD, _FWD, HalfSpinorKernel
from repro.dirac.kernels.numba_soa import SoAHalfSpinorKernel
from repro.dirac.kernels.soa import pack_fermion, unpack_fermion
from repro.dirac.kernels.soa_dist import (
    _HOPPING_DIST,
    _PACK_FACES,
    EMPTY_GHOST,
    distributed_tables,
)
from repro.lattice.gauge import GaugeField
from repro.solvers.cg import BatchedSolveResult, ConjugateGradient
from repro.solvers.multiprec import ReliableUpdateCG
from repro.solvers.precision import SinglePrecision

__all__ = [
    "ENGINES",
    "RankStencil",
    "SoARankStencil",
    "RankEvenOdd",
    "CBStencil",
    "CBEvenOdd",
    "SliceReducer",
    "DecompRuntime",
    "DistributedWilsonOperator",
    "DistributedEvenOddOperator",
    "DistributedCG",
]

#: Executed dslash engines: ``interpreted`` is the NumPy half-spinor
#: stencil (:class:`RankStencil`), ``compiled`` the SoA kernel tier
#: (:class:`SoARankStencil`, numba-JIT where numba imports and the same
#: kernel body interpreted where it does not).
ENGINES = ("interpreted", "compiled")

LOW, HIGH = 0, 1

# ---------------------------------------------------------------------------
# rank-side stencil
# ---------------------------------------------------------------------------


class RankStencil:
    """The Wilson hopping term on one rank's block, under a real policy.

    Builds a serial half-spinor kernel (any PR-2 backend derived from
    :class:`HalfSpinorKernel`) over the local links and swaps its periodic
    rolls for roll-plus-halo-injection; spin projection means only 12 of
    24 reals per face site travel, exactly as in the paper's dslash.

    Two traffic optimizations over the serial kernel, both value-exact:

    * the hopping prefactor ``-1/2`` is folded into the link fields once
      at construction, eliminating two full scaling passes per direction
      — exact because scaling by a power of two only decrements IEEE
      exponents, so it commutes with every rounding in the multiply-
      accumulate chain;
    * the output field is first-*written* (not zero-initialized then
      accumulated) into one of two alternating workspace buffers.  The
      alternation means callers may chain ``hopping(hopping(x))`` and
      hold at most ONE previous result; anything older is overwritten.
      Driver-facing paths copy on gather, and the CG consumes each
      ``ap`` before the next operator application, so the protocol holds
      everywhere in this module.
    """

    def __init__(
        self,
        u: np.ndarray,
        u_dag: np.ndarray,
        geometry: LocalGeometry,
        grid: RankGrid,
        rank: int,
        fabric: Fabric,
        policy: str = "blocking",
        backend: str = "halfspinor",
    ):
        kernel = make_kernel(backend, -0.5 * u, -0.5 * u_dag, geometry)
        if not isinstance(kernel, HalfSpinorKernel):
            raise TypeError(
                "distributed dslash needs a half-spinor kernel backend "
                f"(got {type(kernel).__name__}); the full-spinor reference "
                "backend has no spin-projected faces to exchange"
            )
        self.kernel = kernel
        self._out_slot = 0
        self.grid = grid
        self.rank = rank
        self.part = grid.partitioned
        self.exchanger = HaloExchanger(fabric, grid, rank)
        self.policy = ""
        self.set_policy(policy)

    def set_policy(self, policy: str) -> None:
        if policy not in EXECUTED_POLICIES:
            raise ValueError(
                f"unknown executed policy {policy!r}; have {EXECUTED_POLICIES}"
            )
        if policy == "overlap" and self.part:
            self.grid.check_overlap_feasible()
        self.policy = policy

    def _next_out(self, shape: tuple[int, ...]) -> np.ndarray:
        """One of two alternating output buffers (see class docstring)."""
        self._out_slot ^= 1
        return self.kernel.workspace.get(f"dx_out{self._out_slot}", shape)

    @staticmethod
    def _acc(out, uh, proj, rtmp, first: bool) -> None:
        """Accumulate one reconstructed hop term; ``first`` writes instead
        (value-exact vs. zero-init: ``0 + x == x`` for every float)."""
        if first:
            out[..., 0:2, :] = uh
            np.multiply(uh[..., proj.rsel, :], proj.rcoef, out=rtmp)
            out[..., 2:4, :] = rtmp
        else:
            HalfSpinorKernel._accumulate(out, uh, proj, rtmp)

    def hopping(self, phi: np.ndarray) -> np.ndarray:
        """``H phi`` on the local block ``(n,) + local_dims + (4, 3)``."""
        self.kernel.applications += 1
        if self.policy == "pairwise":
            return self._hopping_pairwise(phi)
        return self._hopping_fused(phi, overlap=self.policy == "overlap")

    # -- per-direction pairwise (fine-grained) ------------------------------
    def _hopping_pairwise(self, phi: np.ndarray) -> np.ndarray:
        k = self.kernel
        ws = k.workspace
        hshape = phi.shape[:-2] + (2, 3)
        hf = ws.get("dx_hf", hshape)
        hb = ws.get("dx_hb", hshape)
        ub = ws.get("dx_ub", hshape)
        hs = ws.get("dx_hs", hshape)
        uh = ws.get("dx_uh", hshape)
        rtmp = ws.get("dx_rtmp", hshape)
        out = self._next_out(phi.shape)
        for mu in range(4):
            axis = 1 + mu
            pf, pb = _FWD[mu], _BWD[mu]
            k._project(phi, pf, hf)
            k._project(phi, pb, hb)
            k._color_mul(mu, True, hb, ub)
            halos = None
            if mu in self.part:
                halos = self.exchanger.exchange(
                    {("f", mu): hf[face_index(mu, LOW)],
                     ("b", mu): ub[face_index(mu, HIGH)]}
                )
            roll_into(hf, -1, axis, hs)
            if halos is not None:
                hs[face_index(mu, HIGH)] = halos[("f", mu)]
            k._color_mul(mu, False, hs, uh)
            self._acc(out, uh, pf, rtmp, first=mu == 0)
            roll_into(ub, +1, axis, hs)
            if halos is not None:
                hs[face_index(mu, LOW)] = halos[("b", mu)]
            k._accumulate(out, hs, pb, rtmp)
        return out

    # -- fused full-halo, blocking or overlapped ----------------------------
    def _hopping_fused(self, phi: np.ndarray, overlap: bool) -> np.ndarray:
        k = self.kernel
        ws = k.workspace
        hshape = phi.shape[:-2] + (2, 3)
        hb = ws.get("dx_hb", hshape)
        hs = ws.get("dx_hs", hshape)
        uh = ws.get("dx_uh", hshape)
        rtmp = ws.get("dx_rtmp", hshape)
        hf = [ws.get(f"dx_hf{mu}", hshape) for mu in range(4)]
        ub = [ws.get(f"dx_ub{mu}", hshape) for mu in range(4)]
        for mu in range(4):
            k._project(phi, _FWD[mu], hf[mu])
            k._project(phi, _BWD[mu], hb)
            k._color_mul(mu, True, hb, ub[mu])
        faces = {}
        for mu in self.part:
            faces[("f", mu)] = hf[mu][face_index(mu, LOW)]
            faces[("b", mu)] = ub[mu][face_index(mu, HIGH)]
        self.exchanger.begin(faces)
        out = self._next_out(phi.shape)
        if overlap:
            # interior pass while faces are in flight: the local periodic
            # wrap is wrong only on boundary slabs, fixed up below
            for mu in range(4):
                axis = 1 + mu
                roll_into(hf[mu], -1, axis, hs)
                k._color_mul(mu, False, hs, uh)
                self._acc(out, uh, _FWD[mu], rtmp, first=mu == 0)
                roll_into(ub[mu], +1, axis, hs)
                k._accumulate(out, hs, _BWD[mu], rtmp)
            halos = self.exchanger.complete()
            self._fixup_boundary(out, hf, ub, halos)
        else:
            halos = self.exchanger.complete()
            for mu in range(4):
                axis = 1 + mu
                roll_into(hf[mu], -1, axis, hs)
                if mu in self.part:
                    hs[face_index(mu, HIGH)] = halos[("f", mu)]
                k._color_mul(mu, False, hs, uh)
                self._acc(out, uh, _FWD[mu], rtmp, first=mu == 0)
                roll_into(ub[mu], +1, axis, hs)
                if mu in self.part:
                    hs[face_index(mu, LOW)] = halos[("b", mu)]
                k._accumulate(out, hs, _BWD[mu], rtmp)
        return out

    # -- overlap boundary recomputation -------------------------------------
    def _shift_slab(
        self,
        arr: np.ndarray,
        mu: int,
        shift: int,
        d: int,
        side: int,
        halos: dict,
    ) -> np.ndarray:
        """Values of ``arr`` at ``x + shift*e_mu`` for the (d, side) slab."""
        tag = ("f", mu) if shift == -1 else ("b", mu)
        if mu == d:
            if shift == -1:
                if side == HIGH:
                    return halos[tag]
                plane = (slice(None),) * (1 + mu) + (slice(1, 2),)
                return arr[plane]
            if side == LOW:
                return halos[tag]
            plane = (slice(None),) * (1 + mu) + (slice(-2, -1),)
            return arr[plane]
        rolled = np.roll(arr[face_index(d, side)], shift, axis=1 + mu)
        if mu in self.part:
            ghost = halos[tag][face_index(d, side)]
            if shift == -1:
                rolled[face_index(mu, HIGH)] = ghost
            else:
                rolled[face_index(mu, LOW)] = ghost
        return rolled

    def _fixup_boundary(
        self,
        out: np.ndarray,
        hf: list[np.ndarray],
        ub: list[np.ndarray],
        halos: dict,
    ) -> None:
        """Recompute every halo-touching slab with the true ghost data.

        Overwrites (idempotent at corners), preserving the interior
        pass's per-site operation chain so overlap output is bitwise
        identical to blocking.
        """
        k = self.kernel
        ws = k.workspace
        for d in self.part:
            sshape = list(out.shape)
            sshape[1 + d] = 1
            acc = ws.get(f"dx_fx_acc{d}", tuple(sshape))
            half = tuple(sshape[:-2]) + (2, 3)
            us = ws.get(f"dx_fx_uh{d}", half)
            rs = ws.get(f"dx_fx_rt{d}", half)
            for side in (LOW, HIGH):
                sites = face_index(d, side, lead=0)
                for mu in range(4):
                    hv = self._shift_slab(hf[mu], mu, -1, d, side, halos)
                    k._color_mul(mu, False, hv, us, sites=sites)
                    self._acc(acc, us, _FWD[mu], rs, first=mu == 0)
                    bv = self._shift_slab(ub[mu], mu, +1, d, side, halos)
                    k._accumulate(acc, bv, _BWD[mu], rs)
                out[face_index(d, side)] = acc


# ---------------------------------------------------------------------------
# rank-side stencil, compiled SoA engine
# ---------------------------------------------------------------------------


class SoARankStencil:
    """The Wilson hopping term on one rank's block, over the SoA tier.

    The execution engine is the batched SoA stencil of
    :mod:`repro.dirac.kernels.soa_dist` — numba-JIT where numba imports,
    the identical body interpreted where it does not.  The distributed
    neighbour tables encode ghost reads directly (``-(slot) - 1``
    entries), so the kernel consumes received faces in place with no
    halo-padded copy of the field.

    Unlike :class:`RankStencil`, links are NOT pre-scaled by ``-1/2``:
    the SoA kernel body carries the factor in its accumulate lines, so
    the per-site float64 operation chain is *identical* to the serial
    ``numba_soa`` backend — distributed output is bitwise equal to the
    serial kernel for every rank grid and policy.

    The interior/surface split gives true comm/compute overlap: under
    the ``overlap`` policy the interior site list (no ghost reads) runs
    between :meth:`HaloExchanger.begin` and ``complete``, then the
    surface list consumes the ghosts.  Since both lists partition the
    site set and each site's chain never depends on the other list,
    overlap output is bitwise equal to blocking.

    The output buffer protocol matches :class:`RankStencil` (two
    alternating workspace slots; callers hold at most one prior result).
    """

    def __init__(
        self,
        u: np.ndarray,
        u_dag: np.ndarray,
        geometry: LocalGeometry,
        grid: RankGrid,
        rank: int,
        fabric: Fabric,
        policy: str = "blocking",
    ):
        self.kernel = SoAHalfSpinorKernel(u, u_dag, geometry)
        self._out_slot = 0
        self.grid = grid
        self.rank = rank
        self.part = grid.partitioned
        self.exchanger = HaloExchanger(fabric, grid, rank)
        self._dist = distributed_tables(geometry.dims, self.part)
        self.geometry = geometry
        #: cumulative seconds in the interior pass of the overlap
        #: schedule — the compute window the halo wait hides behind
        self.interior_seconds = 0.0
        self.policy = ""
        self.set_policy(policy)

    def set_policy(self, policy: str) -> None:
        if policy not in EXECUTED_POLICIES:
            raise ValueError(
                f"unknown executed policy {policy!r}; have {EXECUTED_POLICIES}"
            )
        if policy == "overlap" and self.part:
            self.grid.check_overlap_feasible()
        self.policy = policy

    def _next_out(self, shape: tuple[int, ...]) -> np.ndarray:
        """One of two alternating output buffers (see class docstring)."""
        self._out_slot ^= 1
        return self.kernel.workspace.get(f"dx_out{self._out_slot}", shape)

    # -- face pack / ghost fill ---------------------------------------------
    def _pack_mu(self, mu: int, n: int, phi_re, phi_im) -> dict:
        """SoA face buffers for one direction: projected low face and
        ``U^H``-multiplied high face, 12 reals per site per RHS."""
        k = self.kernel
        ws = k.workspace
        dt = self._dist
        t = k._tables
        F = dt.face_volume[mu]
        fbuf = ws.get(f"dx_face_f{mu}", (2, n, 2, 3, F), np.float64)
        bbuf = ws.get(f"dx_face_b{mu}", (2, n, 2, 3, F), np.float64)
        _PACK_FACES(fbuf, phi_re, phi_im, k._ud_re, k._ud_im,
                    dt.face_sites[(mu, LOW)], mu, 0,
                    t.a_idx, t.a_re, t.a_im)
        _PACK_FACES(bbuf, phi_re, phi_im, k._ud_re, k._ud_im,
                    dt.face_sites[(mu, HIGH)], mu, 1,
                    t.a_idx, t.a_re, t.a_im)
        return {("f", mu): fbuf, ("b", mu): bbuf}

    def _fill_ghosts(self, halos: dict, mus, ghosts) -> None:
        """Copy received faces into the per-direction ghost segments
        (transport storage is only valid until the next-but-one round)."""
        gf_re, gf_im, gb_re, gb_im = ghosts
        dt = self._dist
        for mu in mus:
            off = dt.ghost_offset[mu]
            F = dt.face_volume[mu]
            f = halos[("f", mu)]
            gf_re[:, :, :, off:off + F] = f[0]
            gf_im[:, :, :, off:off + F] = f[1]
            b = halos[("b", mu)]
            gb_re[:, :, :, off:off + F] = b[0]
            gb_im[:, :, :, off:off + F] = b[1]

    def _stencil(self, sites, phi_re, phi_im, out_re, out_im, ghosts) -> None:
        k = self.kernel
        t = k._tables
        dt = self._dist
        gf_re, gf_im, gb_re, gb_im = ghosts
        _HOPPING_DIST(
            out_re, out_im,
            phi_re, phi_im,
            k._u_re, k._u_im,
            k._ud_re, k._ud_im,
            dt.nbr_fwd, dt.nbr_bwd,
            gf_re, gf_im, gb_re, gb_im,
            sites,
            t.a_idx, t.a_re, t.a_im,
            t.r_row, t.r_re, t.r_im,
        )

    def hopping(self, phi: np.ndarray) -> np.ndarray:
        """``H phi`` on the local block ``(n,) + local_dims + (4, 3)``."""
        k = self.kernel
        k.applications += 1
        n = phi.shape[0]
        sshape = (n, 4, 3, self.geometry.volume)
        ws = k.workspace
        phi_re = ws.get("phi_re", sshape, np.float64)
        phi_im = ws.get("phi_im", sshape, np.float64)
        out_re = ws.get("out_re", sshape, np.float64)
        out_im = ws.get("out_im", sshape, np.float64)
        t0 = time.perf_counter()
        with obs.span("soa.pack", cat="layout", lead=n):
            pack_fermion(phi, out_re=phi_re, out_im=phi_im)
        k.pack_seconds += time.perf_counter() - t0
        dt = self._dist
        if self.part:
            gshape = (n, 2, 3, max(dt.n_ghost, 1))
            ghosts = (
                ws.get("dx_gf_re", gshape, np.float64),
                ws.get("dx_gf_im", gshape, np.float64),
                ws.get("dx_gb_re", gshape, np.float64),
                ws.get("dx_gb_im", gshape, np.float64),
            )
            if self.policy == "pairwise":
                for mu in sorted(self.part):
                    halos = self.exchanger.exchange(
                        self._pack_mu(mu, n, phi_re, phi_im)
                    )
                    self._fill_ghosts(halos, (mu,), ghosts)
                self._stencil(dt.all_sites, phi_re, phi_im,
                              out_re, out_im, ghosts)
            else:
                faces = {}
                for mu in sorted(self.part):
                    faces.update(self._pack_mu(mu, n, phi_re, phi_im))
                self.exchanger.begin(faces)
                if self.policy == "overlap":
                    ti = time.perf_counter()
                    self._stencil(dt.interior_sites, phi_re, phi_im,
                                  out_re, out_im, ghosts)
                    self.interior_seconds += time.perf_counter() - ti
                    halos = self.exchanger.complete()
                    self._fill_ghosts(halos, sorted(self.part), ghosts)
                    self._stencil(dt.surface_sites, phi_re, phi_im,
                                  out_re, out_im, ghosts)
                else:
                    halos = self.exchanger.complete()
                    self._fill_ghosts(halos, sorted(self.part), ghosts)
                    self._stencil(dt.all_sites, phi_re, phi_im,
                                  out_re, out_im, ghosts)
        else:
            self._stencil(dt.all_sites, phi_re, phi_im, out_re, out_im,
                          (EMPTY_GHOST, EMPTY_GHOST, EMPTY_GHOST, EMPTY_GHOST))
        out = self._next_out(phi.shape)
        t1 = time.perf_counter()
        with obs.span("soa.unpack", cat="layout", lead=n):
            unpack_fermion(out_re, out_im, phi.shape, out=out)
        k.unpack_seconds += time.perf_counter() - t1
        return out


# ---------------------------------------------------------------------------
# rank-side even-odd (Schur) operator and solver
# ---------------------------------------------------------------------------


class RankEvenOdd:
    """Red-black Schur machinery on one rank's block.

    The ``*_apply`` methods mirror :class:`repro.dirac.EvenOddWilson`
    operation-for-operation (bitwise-testable against it); the ``*_fast``
    variants are the CG hot path with the exact-value shortcuts described
    in the module docstring.
    """

    def __init__(self, stencil: RankStencil, mass: float, geometry: LocalGeometry):
        self.stencil = stencil
        self.geometry = geometry
        self.diag = float(mass) + 4.0
        self._inv_diag = 1.0 / self.diag
        self._g5_diag = gamma5_mul(np.full((4, 3), self.diag))
        self._keep = (
            geometry.parity_mask(0)[..., None, None],
            geometry.parity_mask(1)[..., None, None],
        )

    def restrict(self, psi: np.ndarray, parity: int) -> np.ndarray:
        return psi * self._keep[parity]

    # -- serial mirrors (facade path, bitwise vs EvenOddWilson) ------------
    def schur_apply(self, x: np.ndarray) -> np.ndarray:
        t = self.stencil.hopping(x)
        t = self.stencil.hopping(t / self.diag)
        return self.restrict(self.diag * x - t, 0)

    def schur_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        t = gamma5_mul(self.stencil.hopping(gamma5_mul(x)))
        t = gamma5_mul(self.stencil.hopping(gamma5_mul(t / self.diag)))
        return self.restrict(self.diag * x - t, 0)

    def schur_normal_apply(self, x: np.ndarray) -> np.ndarray:
        return self.schur_dagger_apply(self.schur_apply(x))

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        b_odd = self.restrict(b, 1)
        b_even = self.restrict(b, 0)
        return self.restrict(b_even - self.stencil.hopping(b_odd / self.diag), 0)

    def reconstruct(self, x_even: np.ndarray, b: np.ndarray) -> np.ndarray:
        b_odd = self.restrict(b, 1)
        x_odd = self.restrict(b_odd - self.stencil.hopping(x_even), 1) / self.diag
        return x_even + x_odd

    # -- CG hot path --------------------------------------------------------
    # Inputs are even-checkerboard-pure, so the hopping output's same-
    # checkerboard half is exactly (+/-)0.0 and the trailing restrict is
    # a value-level no-op: elide it.  gamma_5 pairs around 1/diag cancel
    # exactly, leaving one fused sign-and-scale pass per dagger hop.
    def schur_fast(self, x: np.ndarray) -> np.ndarray:
        ws = self.stencil.kernel.workspace
        t = self.stencil.hopping(x)
        t *= self._inv_diag
        t = self.stencil.hopping(t)
        dx = ws.get("eo_diagx", x.shape)
        np.multiply(x, self.diag, out=dx)
        return np.subtract(dx, t, out=t)

    def schur_dagger_fast(self, x: np.ndarray) -> np.ndarray:
        # serial chain: g5 H g5 ((g5 H g5 x)/diag); the two inner g5's
        # cancel exactly, leaving one sign flip at entry and one at exit.
        # The closing diag*x is rebuilt from the private y = g5 x buffer
        # (diag*x == (g5*diag)*y bitwise), because x may alias the
        # stencil output slot the second hopping below reclaims — exactly
        # what happens in the normal-equations chain dagger(schur(p)).
        ws = self.stencil.kernel.workspace
        y = ws.get("eo_g5x", x.shape)
        gamma5_mul(x, out=y)
        t = self.stencil.hopping(y)
        t *= self._inv_diag
        t = self.stencil.hopping(t)
        gamma5_mul(t, out=t)
        dx = ws.get("eo_diagx", x.shape)
        np.multiply(y, self._g5_diag, out=dx)
        return np.subtract(dx, t, out=t)

    def schur_normal_fast(self, x: np.ndarray) -> np.ndarray:
        return self.schur_dagger_fast(self.schur_fast(x))


# ---------------------------------------------------------------------------
# checkerboard-packed Schur fast path (the solver's half-volume kernels)
# ---------------------------------------------------------------------------


class CBStencil:
    """Hopping on checkerboard-*packed* fields: half the sites, half the
    work in every hot primitive.

    Schur vectors live on one parity only, so the full-lattice stencil
    wastes half of every projection/color-multiply/accumulate pass on
    exact zeros.  This class stores one parity's sites contiguously by
    folding the t-axis pairwise: site ``(x, y, z, t)`` of parity ``P``
    lands at packed index ``(x, y, z, t // 2)`` — within one (x, y, z)
    column the two t-slots split between the parities, so a parity array
    has shape ``dims[:3] + (lt // 2,)``.

    The payoff of packing along t:

    * shifts along x, y, z are **plain rolls** between the parity arrays
      (the packed t-index is unchanged: the neighbour's parity flip and
      the t-slot convention cancel), so the partitioned directions keep
      the exact roll-plus-halo-injection pattern of the full stencil —
      and the faces halve along with the volume;
    * only the t-shift itself needs a mask (whether a site's t-neighbour
      sits in the same packed slot or the next one), and t is never
      partitioned here, so the masked roll is rank-local.

    Packed layouts splice seamlessly across rank boundaries whenever
    every **global** extent is even (local extents may be odd): the
    origin parity shift between neighbouring blocks exactly compensates
    the parity flip of the crossing hop.  Eligibility is checked by
    :attr:`_RankContext.cb`.

    Packing is pure data movement and the per-site operation chain
    (project -> shift -> color multiply -> accumulate, forward then
    backward, links pre-folded by ``-1/2``) is the full stencil's, so
    ``unpack(hopping(pack(x)))`` is bitwise identical to the full-field
    ``hopping(x)`` on the nonzero parity — and the CG built on it stays
    bitwise invariant under the rank count.  The color multiply always
    uses the unrolled nine-MAC form (packed component planes), whatever
    backend the full-field path tuned to.
    """

    _TP_AXIS = 4  # packed-t axis of a (n, x, y, z, tp, spin, color) field

    def __init__(
        self,
        stencil: RankStencil,
        u: np.ndarray,
        u_dag: np.ndarray,
        geometry: LocalGeometry,
    ):
        if geometry.dims[3] % 2:
            raise ValueError(f"packing needs an even t extent, got {geometry.dims[3]}")
        self.kernel = stencil.kernel
        self.exchanger = stencil.exchanger
        self.part = stencil.part
        if 3 in self.part:
            raise ValueError("the packed axis (t) must not be partitioned")
        self._out_slot = 0
        lx, ly, lz, _ = geometry.dims
        s0 = sum(geometry.origin) % 2
        cx, cy, cz = np.ix_(np.arange(lx), np.arange(ly), np.arange(lz))
        par3 = (cx + cy + cz + s0) % 2  # global parity of the t=0 slot
        # m[P] marks columns whose parity-P site occupies the *even* t-slot
        self._mplane = tuple((par3 == P)[..., None] for P in (0, 1))
        self._mfield = tuple((par3 == P)[..., None, None, None] for P in (0, 1))
        fu, fud = -0.5 * u, -0.5 * u_dag  # value-exact fold, as in RankStencil
        comp = lambda arr, mu, P: tuple(
            tuple(self._pack_plane(arr[mu, ..., a, b], P) for b in range(3))
            for a in range(3)
        )
        self._u_comp = tuple(
            tuple(comp(fu, mu, P) for P in (0, 1)) for mu in range(4)
        )
        self._udag_comp = tuple(
            tuple(comp(fud, mu, P) for P in (0, 1)) for mu in range(4)
        )

    # -- packing ------------------------------------------------------------
    def _pack_plane(self, plane: np.ndarray, parity: int) -> np.ndarray:
        """Pack one link-component plane ``(x, y, z, t)`` at one parity."""
        m = self._mplane[parity]
        packed = np.where(m, plane[..., 0::2], plane[..., 1::2])
        return np.ascontiguousarray(packed)[..., None]

    def pack(self, field: np.ndarray, parity: int) -> np.ndarray:
        """Extract one parity of a full local field into a packed array."""
        m = self._mfield[parity]
        return np.where(m, field[..., 0::2, :, :], field[..., 1::2, :, :])

    def unpack(self, p0: np.ndarray, p1: np.ndarray, out: np.ndarray) -> None:
        """Interleave packed parities back into a full local field."""
        m = self._mfield[0]
        out[..., 0::2, :, :] = np.where(m, p0, p1)
        out[..., 1::2, :, :] = np.where(m, p1, p0)

    # -- primitives ---------------------------------------------------------
    def _next_out(self, shape: tuple[int, ...]) -> np.ndarray:
        """Alternating output slots, same protocol as RankStencil."""
        self._out_slot ^= 1
        return self.kernel.workspace.get(f"cb_out{self._out_slot}", shape)

    def _cmul(self, mu: int, dagger: bool, parity: int, h, out) -> None:
        """Nine-MAC color multiply over packed component planes."""
        comp = (self._udag_comp if dagger else self._u_comp)[mu][parity]
        tmp = self.kernel.workspace.get("cb_cmul_tmp", h.shape[:-1])
        for a in range(3):
            oa = out[..., a]
            np.multiply(comp[a][0], h[..., 0], out=oa)
            np.multiply(comp[a][1], h[..., 1], out=tmp)
            oa += tmp
            np.multiply(comp[a][2], h[..., 2], out=tmp)
            oa += tmp

    # -- the packed stencil --------------------------------------------------
    def hopping(self, xp: np.ndarray, parity: int) -> np.ndarray:
        """``H x`` from packed parity-``parity`` input to the opposite
        parity's packed sites (returned in an alternating workspace slot)."""
        k = self.kernel
        k.applications += 1
        ws = k.workspace
        q = 1 - parity
        hshape = xp.shape[:-2] + (2, 3)
        hf = ws.get("cb_hf", hshape)
        hb = ws.get("cb_hb", hshape)
        ub = ws.get("cb_ub", hshape)
        hs = ws.get("cb_hs", hshape)
        uh = ws.get("cb_uh", hshape)
        rtmp = ws.get("cb_rt", hshape)
        out = self._next_out(xp.shape)
        for mu in range(4):
            pf, pb = _FWD[mu], _BWD[mu]
            k._project(xp, pf, hf)
            k._project(xp, pb, hb)
            self._cmul(mu, True, parity, hb, ub)
            halos = None
            if mu in self.part:
                halos = self.exchanger.exchange(
                    {("f", mu): hf[face_index(mu, LOW)],
                     ("b", mu): ub[face_index(mu, HIGH)]}
                )
            # forward hop: psi(x + mu), landing on parity q
            if mu == 3:
                roll_into(hf, -1, self._TP_AXIS, hs)
                np.copyto(hs, hf, where=self._mfield[q])  # even-slot columns
            else:
                roll_into(hf, -1, 1 + mu, hs)
                if halos is not None:
                    hs[face_index(mu, HIGH)] = halos[("f", mu)]
            self._cmul(mu, False, q, hs, uh)
            RankStencil._acc(out, uh, pf, rtmp, first=mu == 0)
            # backward hop: U^H psi at x - mu, landing on parity q
            if mu == 3:
                roll_into(ub, +1, self._TP_AXIS, hs)
                np.copyto(hs, ub, where=self._mfield[parity])  # odd-slot columns
            else:
                roll_into(ub, +1, 1 + mu, hs)
                if halos is not None:
                    hs[face_index(mu, LOW)] = halos[("b", mu)]
            k._accumulate(out, hs, pb, rtmp)
        return out


class CBEvenOdd:
    """Schur machinery on checkerboard-packed fields (the CG hot path).

    Same exact-value shortcuts as the ``*_fast`` methods of
    :class:`RankEvenOdd`, on arrays half the size.  The workspace-slot
    aliasing protocol is identical; every method that consumes its input
    before the second hopping reclaims the slot does so explicitly.
    """

    def __init__(self, st: CBStencil, mass: float):
        self.st = st
        self.diag = float(mass) + 4.0
        self._inv_diag = 1.0 / self.diag
        self._g5_diag = gamma5_mul(np.full((4, 3), self.diag))

    def pack(self, field: np.ndarray, parity: int) -> np.ndarray:
        return self.st.pack(field, parity)

    def schur_fast(self, x: np.ndarray) -> np.ndarray:
        ws = self.st.kernel.workspace
        t = self.st.hopping(x, 0)
        t *= self._inv_diag
        t = self.st.hopping(t, 1)
        dx = ws.get("cb_diagx", x.shape)
        np.multiply(x, self.diag, out=dx)
        return np.subtract(dx, t, out=t)

    def schur_dagger_fast(self, x: np.ndarray) -> np.ndarray:
        # y = g5 x is private, so the second hopping may reclaim the
        # slot x lives in (see RankEvenOdd.schur_dagger_fast).
        ws = self.st.kernel.workspace
        y = ws.get("cb_g5x", x.shape)
        gamma5_mul(x, out=y)
        t = self.st.hopping(y, 0)
        t *= self._inv_diag
        t = self.st.hopping(t, 1)
        gamma5_mul(t, out=t)
        dx = ws.get("cb_diagx", x.shape)
        np.multiply(y, self._g5_diag, out=dx)
        return np.subtract(dx, t, out=t)

    def schur_normal_fast(self, x: np.ndarray) -> np.ndarray:
        return self.schur_dagger_fast(self.schur_fast(x))

    def prepare_rhs_packed(self, pb_e: np.ndarray, pb_o: np.ndarray) -> np.ndarray:
        """``b_e - H (b_o / diag)`` on packed sites; reuses ``pb_e``."""
        ws = self.st.kernel.workspace
        v = ws.get("cb_prep", pb_o.shape)
        np.multiply(pb_o, self._inv_diag, out=v)
        t = self.st.hopping(v, 1)
        return np.subtract(pb_e, t, out=pb_e)

    def reconstruct_packed(
        self, x_e: np.ndarray, pb_o: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """``x_o = (b_o - H x_e) / diag``, interleaved to the full field."""
        t = self.st.hopping(x_e, 0)
        x_o = np.subtract(pb_o, t, out=pb_o)
        x_o *= self._inv_diag
        out = np.empty_like(b)
        self.st.unpack(x_e, x_o, out)
        return out


class SliceReducer:
    """Decomposition-invariant batched inner products.

    Partials are one ``Re <a_i, b_i>`` per (global slice along the
    reduction axis, right-hand side); each slice lives wholly inside one
    rank (slab grids), so the table content — and its fixed-order global
    sum — is identical for every rank count.  Axis 0 keeps each
    ``a[i, j]`` chunk contiguous, so ``np.vdot`` runs copy-free.
    """

    AXIS = 0

    def __init__(self, fabric: Fabric, grid: RankGrid, rank: int):
        bad = [mu for mu in grid.partitioned if mu != self.AXIS]
        if bad:
            raise ValueError(
                "distributed CG reductions need a slab grid along axis 0; "
                f"grid {grid.grid} also partitions axes {bad}"
            )
        self.fabric = fabric
        self.local_rows = grid.local_dims[self.AXIS]
        self.row0 = grid.coords(rank)[self.AXIS] * self.local_rows
        if fabric.spec.reduce_rows != grid.global_dims[self.AXIS]:
            raise ValueError("fabric reduction table does not match the lattice")

    def batch_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Global per-RHS ``Re <a_i, b_i>`` (identical on every rank)."""
        k = a.shape[0]
        partials = np.empty((self.local_rows, k), dtype=np.float64)
        for j in range(self.local_rows):
            aj = a[:, j]
            bj = b[:, j]
            for i in range(k):
                partials[j, i] = np.vdot(aj[i], bj[i]).real
        return self.fabric.allreduce_rows(self.row0, partials)


# ---------------------------------------------------------------------------
# the per-rank worker program
# ---------------------------------------------------------------------------


class _RankContext:
    """Everything one rank needs, independent of the transport."""

    def __init__(
        self,
        rank: int,
        grid: RankGrid,
        fabric: Fabric,
        u_local: np.ndarray,
        mass: float,
        backend: str,
        policy: str,
        engine: str = "interpreted",
    ):
        geometry = grid.local_geometry(rank)
        u_dag = np.conjugate(np.swapaxes(u_local, -1, -2))
        self.mass = float(mass)
        self.engine = engine
        if engine == "compiled":
            self.stencil = SoARankStencil(
                u_local, u_dag, geometry, grid, rank, fabric, policy
            )
        else:
            self.stencil = RankStencil(
                u_local, u_dag, geometry, grid, rank, fabric, policy, backend
            )
        self.eo = RankEvenOdd(self.stencil, mass, geometry)
        self._geometry = geometry
        self._u_local = u_local
        self._u_dag = u_dag
        self._grid = grid
        self._fabric = fabric
        self._rank = rank
        self._reducer: SliceReducer | None = None
        self._cb: CBEvenOdd | None | bool = False  # False: not built yet

    @property
    def reducer(self) -> SliceReducer:
        if self._reducer is None:
            self._reducer = SliceReducer(self._fabric, self._grid, self._rank)
        return self._reducer

    @property
    def cb(self) -> CBEvenOdd | None:
        """Checkerboard-packed Schur fast path, where the grid allows it
        (t unpartitioned, every global extent even); else ``None``."""
        if self._cb is False:
            # The compiled engine batches all sites through one SoA
            # stencil; the t-packed half-volume trick is an interpreted-
            # path optimization and does not apply.
            ok = (
                self.engine != "compiled"
                and 3 not in self._grid.partitioned
                and all(L % 2 == 0 for L in self._grid.global_dims)
            )
            self._cb = (
                CBEvenOdd(
                    CBStencil(self.stencil, self._u_local, self._u_dag, self._geometry),
                    self.mass,
                )
                if ok
                else None
            )
        return self._cb


#: The rank program's field operations, by wire code: ``fn(ctx, phi)``
#: on one rank's local block.  Every launcher (``worker_main``,
#: ``MpiRuntime``, the ``mpi_worker`` job protocol) dispatches through
#: this table, so an operation is added here and nowhere else.
RANK_OPS = {
    "hopping": lambda ctx, phi: ctx.stencil.hopping(phi),
    "apply": lambda ctx, phi: (ctx.mass + 4.0) * phi + ctx.stencil.hopping(phi),
    "schur": lambda ctx, phi: ctx.eo.schur_apply(phi),
    "schur_dagger": lambda ctx, phi: ctx.eo.schur_dagger_apply(phi),
    "schur_normal": lambda ctx, phi: ctx.eo.schur_normal_apply(phi),
    "prepare_rhs": lambda ctx, phi: ctx.eo.prepare_rhs(phi),
}


def rank_solve(
    ctx: _RankContext,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    reliable: bool = False,
    delta: float = 0.1,
) -> BatchedSolveResult:
    """The full propagator pipeline on one rank (collective throughout).

    Prepares the even-site system (checkerboard-packed where ``ctx.cb``
    allows: half the work everywhere), hands the normal system to the
    *serial* solvers' own recurrence — :meth:`ConjugateGradient._run`,
    or :meth:`ReliableUpdateCG._run` on single-precision Krylov storage
    when ``reliable`` — with the collective ``SliceReducer.batch_dot``
    as the inner product, and reconstructs the full-lattice local
    solution.  ``b`` must be caller-owned (never a workspace slot).

    Returns the solver's own result (identical on every rank) with ``x``
    this rank's block of the solution and ``final_relres`` the prepared
    even-site system's residual.
    """
    eo, cb, dot = ctx.eo, ctx.cb, ctx.reducer.batch_dot
    if cb is not None:
        pb_o = cb.pack(b, 1)
        b_prep = cb.prepare_rhs_packed(cb.pack(b, 0), pb_o)
        rhs = np.array(cb.schur_dagger_fast(b_prep), copy=True)
        normal, schur = cb.schur_normal_fast, cb.schur_fast
    else:
        b_prep = eo.prepare_rhs(b)
        rhs = eo.schur_dagger_apply(b_prep)
        normal, schur = eo.schur_normal_fast, eo.schur_apply
    if reliable:
        solver = ReliableUpdateCG(SinglePrecision(), tol=tol, delta=delta, max_iter=max_iter)
    else:
        solver = ConjugateGradient(tol=tol, max_iter=max_iter)
    res = solver._run(normal, rhs, dot=dot)
    pnorm = np.sqrt(dot(b_prep, b_prep))
    orig = b_prep - schur(res.x)
    res.final_relres = np.where(
        pnorm > 0.0,
        np.sqrt(dot(orig, orig)) / np.where(pnorm > 0.0, pnorm, 1.0),
        res.final_relres,
    )
    if cb is not None:
        res.x = cb.reconstruct_packed(res.x, pb_o, b)
    else:
        res.x = eo.reconstruct(res.x, b)
    return res


def rank_stats(ctx: _RankContext) -> dict:
    """One rank's exchanger counters (the ``halo_stats`` row)."""
    ex = ctx.stencil.exchanger
    return {
        "engine": ctx.engine,
        "rounds": ex.rounds,
        "messages": ex.messages,
        "bytes_sent": ex.bytes_sent,
        "wait_seconds": ex.wait_seconds,
        "interior_seconds": getattr(ctx.stencil, "interior_seconds", 0.0),
    }


class _ThreadIO:
    """Field transfer when driver and worker share an address space."""

    def get(self, payload: dict) -> np.ndarray:
        return payload["field"]

    def put(self, arr: np.ndarray) -> dict:
        return {"field": arr}


class _ShmIO:
    """Field transfer staged through the arena's per-rank regions."""

    def __init__(self, arena: ShmArena, rank: int):
        self.arena = arena
        self.rank = rank

    def get(self, payload: dict) -> np.ndarray:
        return self.arena.view(("fin", self.rank), tuple(payload["shape"]))

    def put(self, arr: np.ndarray) -> dict:
        self.arena.view(("fout", self.rank), arr.shape)[...] = arr
        return {"shape": arr.shape}


def worker_main(ctx: _RankContext, chan, io) -> None:
    """Command loop every rank runs until ``stop`` (or channel EOF)."""
    while True:
        try:
            cmd, payload = chan.recv()
        except EOFError:
            return
        try:
            if cmd == "stop":
                chan.send(("ok", None))
                return
            if cmd == "policy":
                ctx.stencil.set_policy(payload)
                chan.send(("ok", None))
                continue
            if cmd == "stats":
                chan.send(("ok", rank_stats(ctx)))
                continue
            if cmd == "cg":
                b = np.array(io.get(payload), copy=True)
                res = rank_solve(ctx, b, **payload["solve"])
                chan.send(("ok", {**io.put(res.x), "result": replace(res, x=None)}))
                continue
            if cmd not in RANK_OPS:
                raise ValueError(f"unknown worker command {cmd!r}")
            chan.send(("ok", io.put(RANK_OPS[cmd](ctx, io.get(payload)))))
        except Exception:
            chan.send(("err", traceback.format_exc()))


class _QueueChannel:
    """Worker end of a thread-transport command channel."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self.inbox = inbox
        self.outbox = outbox

    def recv(self):
        return self.inbox.get()

    def send(self, msg) -> None:
        self.outbox.put(msg)


class _PipeChannel:
    """Worker end of a process-transport command channel."""

    def __init__(self, conn):
        self.conn = conn

    def recv(self):
        return self.conn.recv()

    def send(self, msg) -> None:
        self.conn.send(msg)


def _shm_worker_entry(cfg: dict, shm_name: str, barrier, conn) -> None:
    """Spawned-process entry: attach to the arena and serve commands."""
    arena = None
    try:
        grid = RankGrid.make(cfg["global_dims"], cfg["grid"])
        spec: FabricSpec = cfg["spec"]
        rank: int = cfg["rank"]
        arena = ShmArena(spec, name=shm_name)
        fabric = ShmFabric(spec, rank, arena, barrier)
        u_local = np.array(
            arena.view(("links", rank), (4,) + grid.local_dims + (3, 3)), copy=True
        )
        ctx = _RankContext(
            rank, grid, fabric, u_local, cfg["mass"], cfg["backend"],
            cfg["policy"], cfg.get("engine", "interpreted"),
        )
        worker_main(ctx, _PipeChannel(conn), _ShmIO(arena, rank))
    except Exception:  # pragma: no cover - defensive: surfaced to the driver
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
    finally:
        if arena is not None:
            arena.close()


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _normalize_transport(transport) -> str:
    from repro.comm.policies import TransferPath

    if isinstance(transport, TransferPath):
        name = {
            TransferPath.ZERO_COPY: "threads",
            TransferPath.STAGED_CPU: "processes",
        }.get(transport)
        if name is None:
            raise ValueError(
                f"transfer path {transport.value!r} is not executable on this "
                "substrate (GPU Direct RDMA needs NIC support)"
            )
        return name
    if transport in ("threads", "processes", "shm", "loopback"):
        return "processes" if transport == "shm" else transport
    if transport == "mpi":
        raise ValueError(
            "the mpi transport is launcher-driven (SPMD ranks under "
            "mpiexec/srun), not an in-process worker pool; dispatch "
            "through repro.comm.transports.dist_fieldwise/dist_solve, or "
            "run repro.comm.mpifabric.MpiRuntime inside the rank program"
        )
    raise ValueError(f"unknown transport {transport!r}")


def _normalize_policy(policy) -> str:
    from repro.comm.policies import CommPolicy, HaloGranularity

    if isinstance(policy, CommPolicy):
        policy = policy.granularity
    if isinstance(policy, HaloGranularity):
        return policy.schedule
    if policy in EXECUTED_POLICIES:
        return policy
    raise ValueError(f"unknown halo policy {policy!r}; have {EXECUTED_POLICIES}")


def _normalize_engine(engine) -> str:
    from repro.dirac.kernels.numba_soa import NUMBA_AVAILABLE

    if engine in (None, "auto"):
        # compiled only where numba actually JITs: the interpreted
        # execution of the SoA kernel body is a correctness vehicle, not
        # a production engine.
        return "compiled" if NUMBA_AVAILABLE else "interpreted"
    if engine in ENGINES:
        return engine
    raise ValueError(
        f"unknown dslash engine {engine!r}; have {ENGINES + ('auto',)}"
    )


def flatten_stack(psi: np.ndarray, dims: tuple, max_rhs: int) -> np.ndarray:
    """A global field with any leading axes as one contiguous complex128
    ``(n,) + dims + (4, 3)`` stack the transport is sized for."""
    tail = tuple(dims) + (4, 3)
    if psi.shape[-6:] != tail:
        raise ValueError(f"field tail {psi.shape[-6:]} != lattice {tail}")
    phi = psi.reshape((-1,) + tail)
    if phi.shape[0] > max_rhs:
        raise ValueError(f"{phi.shape[0]} stacked fields exceed max_rhs={max_rhs}")
    return np.ascontiguousarray(np.asarray(phi, dtype=np.complex128))


class DecompRuntime:
    """Driver of one worker per rank over a chosen transport.

    Parameters
    ----------
    gauge, mass:
        The operator background, as for :class:`WilsonOperator`.
    ranks / grid:
        Either a rank count (laid out as a slab grid along x, the
        reduction axis) or an explicit 4D process grid.
    transport:
        ``"threads"`` (shared address space — the zero-copy/CUDA-IPC
        analogue), ``"processes"``/``"shm"`` (spawned workers over
        ``multiprocessing.shared_memory`` — the staged-CPU analogue) or
        ``"loopback"`` (worker threads whose fabric is the MPI
        :class:`~repro.comm.mpifabric.MpiFabric` over an in-process
        communicator — the testable tier of the launcher-driven
        ``"mpi"`` transport, which itself lives in
        :mod:`repro.comm.transports`).  :class:`TransferPath` values
        are accepted.
    policy:
        Executed halo policy (``"blocking"``/``"pairwise"``/``"overlap"``,
        or a :class:`CommPolicy`/:class:`HaloGranularity`).
    engine:
        Dslash execution engine: ``"interpreted"`` (NumPy half-spinor
        stencil), ``"compiled"`` (SoA tier with the interior/surface
        split), or ``"auto"`` (compiled iff numba imported).
    backend:
        Dslash kernel backend of the interpreted engine; ``None``/
        ``"auto"`` resolves through ``tuner`` on the *local* volume when
        given, else the registry default.  The compiled engine always
        runs ``numba_soa``.
    max_rhs:
        Widest multi-RHS stack the transport is sized for.
    timeout:
        Collective timeout (seconds) after which a wedged exchange
        raises :class:`CommTimeoutError` instead of deadlocking.
    """

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        *,
        ranks: int | None = None,
        grid: tuple[int, int, int, int] | None = None,
        transport="threads",
        policy="blocking",
        engine="interpreted",
        backend: str | None = None,
        tuner=None,
        antiperiodic_t: bool = True,
        max_rhs: int = 12,
        timeout: float = 60.0,
    ):
        geom = gauge.geometry
        self.geometry = geom
        self.mass = float(mass)
        if grid is None:
            if ranks is None:
                raise ValueError("pass either ranks= or grid=")
            grid = slab_grid(geom.dims, ranks)
        self.grid = RankGrid.make(geom.dims, tuple(grid))
        self.transport = _normalize_transport(transport)
        self.policy = _normalize_policy(policy)
        self.engine = _normalize_engine(engine)
        self.max_rhs = int(max_rhs)

        u = gauge.fermion_links(antiperiodic_t=antiperiodic_t)
        u_blocks = self.grid.scatter(u, site_axis=1)
        if self.engine == "compiled":
            backend = "numba_soa"
        elif backend in (None, "auto"):
            if tuner is not None:
                from repro.dirac.kernels import select_backend

                u0 = u_blocks[0]
                backend = select_backend(
                    tuner,
                    u0,
                    np.conjugate(np.swapaxes(u0, -1, -2)),
                    self.grid.local_geometry(0),
                    n_rhs=self.max_rhs,
                    grid=self.grid.grid,
                    policy=self.policy,
                    transport=self.transport,
                )
            else:
                from repro.dirac.kernels import DEFAULT_BACKEND

                backend = DEFAULT_BACKEND
        self.backend = backend

        self._spec = FabricSpec(
            n_ranks=self.grid.n_ranks,
            local_dims=self.grid.local_dims,
            partitioned=self.grid.partitioned,
            n_max=self.max_rhs,
            reduce_rows=geom.dims[SliceReducer.AXIS],
            timeout=float(timeout),
        )
        self._closed = False
        self._chans: list = []
        if self.policy == "overlap" and self.grid.partitioned:
            self.grid.check_overlap_feasible()
        if self.transport in ("threads", "loopback"):
            self._start_threads(u_blocks)
        else:
            self._start_processes(u_blocks)

    # -- worker startup -----------------------------------------------------
    def _start_threads(self, u_blocks: list[np.ndarray]) -> None:
        if self.transport == "loopback":
            # the MPI fabric over an in-process communicator: same
            # worker threads, but every halo/reduce goes through
            # Isend/Irecv/Ibarrier/allgather instead of shared state —
            # this is how tier-1 keeps MpiFabric under test without
            # mpi4py.
            from repro.comm.mpifabric import LoopbackWorld, MpiFabric

            world = LoopbackWorld(self.grid.n_ranks, timeout=self._spec.timeout)

            def make_fabric(r: int):
                return MpiFabric(self._spec, self.grid, world.comm(r))

        else:
            shared = ThreadShared(self._spec)
            make_fabric = shared.make_fabric
        self._threads: list[threading.Thread] = []
        self._procs: list = []
        for r in range(self.grid.n_ranks):
            inbox: queue.Queue = queue.Queue()
            outbox: queue.Queue = queue.Queue()
            ctx = _RankContext(
                r,
                self.grid,
                make_fabric(r),
                u_blocks[r],
                self.mass,
                self.backend,
                self.policy,
                self.engine,
            )
            t = threading.Thread(
                target=worker_main,
                args=(ctx, _QueueChannel(inbox, outbox), _ThreadIO()),
                name=f"rank{r}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
            self._chans.append(("queue", inbox, outbox))

    def _start_processes(self, u_blocks: list[np.ndarray]) -> None:
        mpctx = spawn_context()
        self._threads = []
        self._procs = []
        self._arena = ShmArena(self._spec)
        for r, blk in enumerate(u_blocks):
            self._arena.view(("links", r), blk.shape)[...] = blk
        # Keep the barrier referenced for the runtime's lifetime: its
        # named semaphores are unlinked on GC, and spawned children
        # rebuild them by name (possibly seconds later).
        barrier = self._barrier = mpctx.Barrier(self.grid.n_ranks)
        for r in range(self.grid.n_ranks):
            parent, child = mpctx.Pipe()
            cfg = {
                "rank": r,
                "global_dims": self.geometry.dims,
                "grid": self.grid.grid,
                "spec": self._spec,
                "mass": self.mass,
                "backend": self.backend,
                "policy": self.policy,
                "engine": self.engine,
            }
            p = mpctx.Process(
                target=_shm_worker_entry,
                args=(cfg, self._arena.name, barrier, child),
                daemon=True,
            )
            p.start()
            child.close()
            self._procs.append(p)
            self._chans.append(("pipe", parent, None))

    # -- command plumbing ---------------------------------------------------
    def _send(self, r: int, msg) -> None:
        kind, a, _ = self._chans[r]
        if kind == "queue":
            a.put(msg)
        else:
            a.send(msg)

    def _recv(self, r: int):
        kind, a, b = self._chans[r]
        if kind == "queue":
            return b.get()
        return a.recv()

    def _command(self, cmd: str, payloads: list) -> list:
        if self._closed:
            raise RuntimeError("runtime is closed")
        for r, payload in enumerate(payloads):
            self._send(r, (cmd, payload))
        replies = []
        failures = []
        for r in range(self.grid.n_ranks):
            try:
                status, meta = self._recv(r)
            except (EOFError, OSError) as e:
                status, meta = "err", f"channel to rank {r} broke: {e!r}"
            if status != "ok":
                failures.append(f"rank {r}:\n{meta}")
            replies.append(meta)
        if failures:
            self.close()
            raise RuntimeError("distributed command failed\n" + "\n".join(failures))
        return replies

    # -- field plumbing -----------------------------------------------------
    def _field_payloads(self, phi: np.ndarray, extra: dict | None = None) -> list:
        blocks = self.grid.scatter(phi, site_axis=1)
        payloads = []
        for r, blk in enumerate(blocks):
            if self.transport in ("threads", "loopback"):
                payload = {"field": blk}
            else:
                self._arena.view(("fin", r), blk.shape)[...] = blk
                payload = {"shape": blk.shape}
            if extra:
                payload.update(extra)
            payloads.append(payload)
        return payloads

    def _gather_fields(self, replies: list) -> np.ndarray:
        if self.transport in ("threads", "loopback"):
            blocks = [rep["field"] for rep in replies]
        else:
            blocks = [
                np.array(self._arena.view(("fout", r), tuple(rep["shape"])), copy=True)
                for r, rep in enumerate(replies)
            ]
        return self.grid.gather(blocks, site_axis=1)

    # -- public operations --------------------------------------------------
    def fieldwise(self, op: str, psi: np.ndarray) -> np.ndarray:
        """One :data:`RANK_OPS` field operation on a global field (stack)."""
        if op not in RANK_OPS:
            raise ValueError(f"unknown field op {op!r}; have {sorted(RANK_OPS)}")
        phi = flatten_stack(psi, self.geometry.dims, self.max_rhs)
        replies = self._command(op, self._field_payloads(phi))
        return self._gather_fields(replies).reshape(psi.shape)

    def hopping(self, psi: np.ndarray) -> np.ndarray:
        return self.fieldwise("hopping", psi)

    def set_policy(self, policy) -> None:
        name = _normalize_policy(policy)
        # Pre-check here so the driver raises the same structured error
        # as construction time, instead of a RuntimeError wrapping the
        # worker-side traceback of the identical check.
        if name == "overlap" and self.grid.partitioned:
            self.grid.check_overlap_feasible()
        self._command("policy", [name] * self.grid.n_ranks)
        self.policy = name

    def solve_cgne(
        self,
        b: np.ndarray,
        tol: float = 1e-10,
        max_iter: int = 10_000,
        reliable: bool = False,
        delta: float = 0.1,
    ) -> BatchedSolveResult:
        """Rank-parallel batched CGNE propagator solve on the full lattice.

        ``b`` must carry at least one leading (right-hand-side) axis.
        ``reliable=True`` runs :class:`ReliableUpdateCG` on single-
        precision Krylov storage with double residual refreshes
        triggered at ``delta`` (see :func:`rank_solve`).  Returns a
        :class:`BatchedSolveResult` whose ``final_relres`` is the
        prepared even-site system's residual, matching
        ``solve_normal_equations_batched``.
        """
        if b.ndim < 7:
            raise ValueError("solve_cgne expects a stacked rhs (leading axes)")
        solve = {
            "tol": float(tol), "max_iter": int(max_iter),
            "reliable": bool(reliable), "delta": float(delta),
        }
        phi = flatten_stack(b, self.geometry.dims, self.max_rhs)
        payloads = self._field_payloads(phi, extra={"solve": solve})
        replies = self._command("cg", payloads)
        return replace(
            replies[0]["result"], x=self._gather_fields(replies).reshape(b.shape)
        )

    # -- diagnostics --------------------------------------------------------
    def comm_stats(self) -> dict:
        """Aggregate message counters (driver-side estimate per apply)."""
        return {
            "transport": self.transport,
            "policy": self.policy,
            "engine": self.engine,
            "ranks": self.grid.n_ranks,
            "grid": self.grid.grid,
            "backend": self.backend,
        }

    def halo_stats(self) -> list:
        """Per-rank exchanger counters: rounds, off-rank messages/bytes,
        cumulative seconds blocked in :meth:`HaloExchanger.complete`
        (the halo wait), and interior-pass seconds under overlap."""
        return self._command("stats", [None] * self.grid.n_ranks)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for r in range(self.grid.n_ranks):
            try:
                self._send(r, ("stop", None))
            except Exception:
                pass
        for t in getattr(self, "_threads", []):
            t.join(timeout=5.0)
        for p in getattr(self, "_procs", []):
            p.join(timeout=10.0)
            if p.is_alive():  # pragma: no cover - defensive teardown
                p.terminate()
                p.join(timeout=5.0)
        arena = getattr(self, "_arena", None)
        if arena is not None:
            arena.close()
            arena.unlink()

    def __enter__(self) -> "DecompRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# serial-API facades
# ---------------------------------------------------------------------------


class DistributedWilsonOperator:
    """Drop-in Wilson operator running rank-parallel underneath.

    Accepts the same background as :class:`WilsonOperator` plus the
    decomposition/transport/policy knobs of :class:`DecompRuntime`
    (forwarded verbatim).  ``hopping``/``apply`` are bitwise identical
    to the serial operator for any rank grid.
    """

    def __init__(self, gauge: GaugeField, mass: float, **kwargs):
        self.runtime = DecompRuntime(gauge, mass, **kwargs)
        self.geometry = self.runtime.geometry
        self.mass = self.runtime.mass

    @property
    def backend(self) -> str:
        return self.runtime.backend

    @property
    def engine(self) -> str:
        return self.runtime.engine

    @property
    def policy(self) -> str:
        return self.runtime.policy

    @property
    def grid(self) -> RankGrid:
        return self.runtime.grid

    def set_policy(self, policy) -> None:
        self.runtime.set_policy(policy)

    def hopping(self, psi: np.ndarray) -> np.ndarray:
        return self.runtime.hopping(psi)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("apply", psi)

    def close(self) -> None:
        self.runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DistributedEvenOddOperator(DistributedWilsonOperator):
    """Distributed red-black Schur complement of the Wilson operator.

    Mirrors :class:`repro.dirac.EvenOddWilson` (bitwise, any rank grid).
    """

    def schur_apply(self, x: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("schur", x)

    def schur_dagger_apply(self, x: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("schur_dagger", x)

    def schur_normal_apply(self, x: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("schur_normal", x)

    def prepare_rhs(self, b: np.ndarray) -> np.ndarray:
        return self.runtime.fieldwise("prepare_rhs", b)


class DistributedCG:
    """Batched CGNE propagator solves through a distributed operator.

    Each rank runs ``ConjugateGradient.solve_batched``'s own recurrence
    with every global reduction routed through the transport's
    fixed-order slice table, so results are invariant under the rank
    count (deterministic, same host).
    """

    def __init__(
        self,
        op: DistributedEvenOddOperator,
        tol: float = 1e-10,
        max_iter: int = 10_000,
        reliable: bool = False,
        delta: float = 0.1,
    ):
        self.op = op
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.reliable = bool(reliable)
        self.delta = float(delta)

    def solve_batched(self, b: np.ndarray) -> BatchedSolveResult:
        """Solve ``D x = b`` for a stack of sources; returns full-lattice
        solutions (prepare + even-site CGNE + reconstruct, all in-rank)."""
        return self.op.runtime.solve_cgne(
            b, tol=self.tol, max_iter=self.max_iter,
            reliable=self.reliable, delta=self.delta,
        )
