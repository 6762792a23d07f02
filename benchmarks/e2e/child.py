"""One workload subprocess: set up, warm up, run timed (or traced) units.

Started by run.py with single-threaded BLAS already in the environment.
Reports progress as ``@e2e {json}`` lines on stdout - one per unit, so
the parent can time out a hung unit - and ends with a ``done`` record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402
from shims import Recorder, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_UNITS = 4  # timed units of a run, however slow the host is
# The host's speed drifts by tens of per cent over minutes (README, "Host
# noise"), so every timed unit is divided by the calibration slices run right
# before and after it: a fixed amount of benchmark-owned numpy work with the
# stencil's instruction mix.  CALIB_REF_S is what one slice takes on the
# reference host in a quiet hour; multiplying by it turns the ratio back into
# seconds "at reference speed".
CALIB_PASSES = 5000
CALIB_REF_S = 0.75

PROBES = {
    "ga_direct": lambda work: probes.kernel_probe("ga_n1"),
    "prop12_dist_r2": lambda work: probes.kernel_probe("prop_n12"),
    "campaign_w2": probes.io_probe,
    "service_dup3": lambda work: {**probes.io_probe(work), **probes.http_probe(work)},
}


def emit(ev: str, **fields) -> None:
    print("@e2e " + json.dumps({"ev": ev, **fields}), flush=True)


def digest(payload) -> str:
    return hashlib.sha256(memoryview(payload)).hexdigest()


def make_calibration():
    """A slice of fixed work on 4^3x8-sized fields: colour multiply, shift,
    axpy, norm - the operations a hopping term is made of.  Returns a
    function that runs one slice and returns its wall time."""
    rng = np.random.default_rng(0)
    field = rng.standard_normal((512, 4, 3)) + 1j * rng.standard_normal((512, 4, 3))
    links = rng.standard_normal((512, 3, 3)) + 1j * rng.standard_normal((512, 3, 3))

    def calibrate() -> float:
        t0 = time.perf_counter()
        for _ in range(CALIB_PASSES):
            out = np.einsum("xab,xsb->xsa", links, field)
            out = np.roll(out, 1, axis=0)
            out += field
            np.vdot(out, out)
        return time.perf_counter() - t0

    return calibrate


def run_unit(wl, recorder: Recorder | None = None):
    with recorder or contextlib.nullcontext():  # a Recorder shims the layers while entered
        c0, t0 = time.process_time(), time.perf_counter()
        out = wl.unit()
        out.info["end"] = time.perf_counter()
        out.info["unit_s"] = out.info["end"] - t0
        out.info["cpu_s"] = time.process_time() - c0
    wl.finish(out)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--t0", required=True, type=float, help="parent's perf_counter at spawn")
    ap.add_argument("--seconds", type=float, default=0.0, help="timed region to fill")
    ap.add_argument("--units", type=int, default=0,
                    help="exactly this many timed units (traced pass: plain/traced pairs) "
                         "instead of filling --seconds")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reference", type=Path)
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--corrupt-unit", type=int)
    args = ap.parse_args()

    # set-up is bracketed by two slices like a unit: one before `import repro`
    # (its time taken out of the set-up wall again), one after the warm-up unit
    calibrate = make_calibration()
    pre_s = calibrate()
    wl = WORKLOADS[args.workload](args.inputs, args.work)
    wl.setup()
    warm = run_unit(wl)
    setup_raw_s = warm.info["end"] - args.t0 - pre_s  # what follows is not set-up
    calib_s = calibrate()
    setup_s = setup_raw_s / (0.5 * (pre_s + calib_s)) * CALIB_REF_S
    if args.write_reference:
        np.savez(args.reference, **warm.info["corr"])
    problems = wl.check(warm, None if args.write_reference else args.reference)
    if warm.failed:
        problems.append(f"{warm.failed} of {warm.attempted} operations failed")
    warm_digest = digest(warm.payload)
    emit("unit", timed=False, s=warm.info["unit_s"], ok=not problems, problems=problems,
         attempted=warm.attempted, failed=warm.attempted if problems else 0)
    wl.discard(warm)
    unit_cpu = [warm.info["cpu_s"]]  # this process's CPU inside units

    def verdict(out, index: int | None = None) -> dict:
        payload = out.payload
        if index is not None and index == args.corrupt_unit:  # test hook: flip one output bit
            raw = bytearray(payload.tobytes() if isinstance(payload, np.ndarray) else payload)
            raw[0] ^= 1
            payload = bytes(raw)
        bad = []
        if digest(payload) != warm_digest:
            bad.append("output not bit-equal to the warm-up unit's")
        if out.failed:
            bad.append(f"{out.failed} of {out.attempted} operations failed")
        return dict(s=out.info["unit_s"], ok=not bad, problems=bad,
                    attempted=out.attempted, failed=out.attempted if bad else 0)

    layer: dict[str, float] = {}
    if not args.trace:
        # Time-boxed with a floor: the wall time averaged over is what is held
        # fixed, not k.  Stops where the end is nearest to --seconds, so a run
        # is as long on a slow host as on a fast one.
        start = time.perf_counter()
        k = 0

        def wanted() -> bool:
            if args.units:
                return k < args.units
            elapsed = time.perf_counter() - start
            return k < MIN_UNITS or elapsed + 0.5 * elapsed / k < args.seconds

        while wanted():
            out = run_unit(wl)
            before, calib_s = calib_s, calibrate()
            norm_s = out.info["unit_s"] / (0.5 * (before + calib_s)) * CALIB_REF_S
            emit("unit", timed=True, norm_s=norm_s, calib_s=calib_s, **verdict(out, k))
            wl.discard(out)
            k += 1
    else:
        # plain and traced units alternate, so host drift cancels in each pair's ratio
        ratios = []
        for i in range(args.units):
            out = run_unit(wl)
            emit("unit", timed=True, **verdict(out))
            wl.discard(out)
            plain_s = out.info["unit_s"]
            unit_cpu.append(out.info["cpu_s"])
            rec = Recorder()
            out = run_unit(wl, rec)
            v = verdict(out)
            if i == args.units - 1:
                extra = wl.check_traced(out)
                layer = wl.layers(out, rec)
                if extra:
                    v.update(ok=False, problems=v["problems"] + extra, failed=out.attempted)
            emit("unit", timed=False, **v)
            wl.discard(out)
            ratios.append(out.info["unit_s"] / plain_s)
            unit_cpu.append(out.info["cpu_s"])
        layer.update(PROBES[args.workload](args.work))
        layer["obs.trace_overhead_frac"] = statistics.median(ratios) - 1.0
        leftover = installed()
        if leftover:
            emit("unit", timed=False, s=0.0, ok=False, attempted=1, failed=1,
                 problems=[f"shims left installed: {leftover}"])

    wl.teardown()
    if args.trace:  # after teardown, so the reaped ranks' and workers' CPU is counted
        cpu = os.times()
        layer["harness.cpu_s_per_unit"] = (
            sum(unit_cpu) + cpu.children_user + cpu.children_system
        ) / len(unit_cpu)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    emit("done", setup_s=setup_s, setup_raw_s=setup_raw_s, peak_rss_mb=rss_kb / 1024.0,
         layers=layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
