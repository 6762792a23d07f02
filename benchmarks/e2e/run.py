"""End-to-end benchmark harness: four workloads, three metrics, layers from outside.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Generates each workload's inputs from ``--seed``, runs the workload in
a fresh subprocess (single-threaded BLAS), checks its outputs, prints
every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # rule 1: before numpy is imported, inherited by every child

import argparse  # noqa: E402
import json  # noqa: E402
import queue  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# Everything the benchmark writes; gitignored.  Inside the checkout, not the
# system's temporary directory: the driver lets a run touch nothing else.
SCRATCH = ROOT / ".bench_tmp"
REFERENCE = HERE / "reference_seed2026.npz"
DEFAULT_SEED = 2026
TRACE_PAIRS = 2  # plain/traced unit pairs of the traced pass
UNIT_TIMEOUT_S = 60.0  # a unit is 3-5 s; past this its process tree is killed
sys.path[:0] = [str(HERE), str(SRC)]  # workloads.py; repro.lattice for input generation
sys.dont_write_bytecode = True  # the harness leaves no __pycache__ in the tree either
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}


# -- inputs -------------------------------------------------------------------
def make_inputs(workload: str, seed: int, dest: Path) -> float:
    """Write the workload's inputs under ``dest``; returns the seconds
    spent generating gauge fields (the ``lattice`` layer)."""
    from workloads import CAMPAIGN, GA, PROP, SERVICE, TENANTS

    gen_s = 0.0
    if workload in ("ga_direct", "prop12_dist_r2"):
        import numpy as np
        from repro.lattice.gauge import GaugeField
        from repro.lattice.geometry import Geometry
        from repro.utils import make_rng

        par = GA if workload == "ga_direct" else PROP
        t0 = time.perf_counter()
        gauge = GaugeField.random(Geometry(*par["dims"]), make_rng(seed), scale=par["scale"])
        gen_s = time.perf_counter() - t0
        np.save(dest / "links.npy", gauge.u)
        if workload == "prop12_dist_r2":  # the 12 spin-colour point sources at the origin
            b = np.zeros((12,) + tuple(par["dims"]) + (4, 3), dtype=np.complex128)
            for sc in range(12):
                b[(sc, 0, 0, 0, 0) + divmod(sc, 3)] = 1.0
            np.save(dest / "sources.npy", b)
    elif workload == "campaign_w2":
        spec = {"builder": "ga", "kwargs": {
            "dims": CAMPAIGN["dims"], "masses": CAMPAIGN["masses"], "seed": seed,
            "tol": CAMPAIGN["tol"], "checkpoint_every": 20}}
        (dest / "spec.json").write_text(json.dumps(spec))
    else:  # service_dup3: unique one-mass specs x duplicates in one fixed order (the
        # order sets how often both connections wait on the same campaign, so it
        # is part of the workload; --seed only picks the gauge configuration)
        u = SERVICE["unique"]
        jobs = [{"key": i, "spec": {"builder": "ga", "kwargs": {
            "dims": SERVICE["dims"], "masses": [round(0.9 + 0.5 * i / u, 6)], "seed": seed,
            "tol": SERVICE["tol"], "max_iter": 2000, "include_seq": False,
            "solver_mode": "batched"}}} for i in range(u) for _ in range(SERVICE["duplicates"])]
        random.Random(SERVICE["order_seed"]).shuffle(jobs)
        for k, job in enumerate(jobs):
            job["tenant"] = TENANTS[k % len(TENANTS)]
        (dest / "jobs.json").write_text(json.dumps(jobs))
    return gen_s


# -- one workload subprocess ---------------------------------------------------
def group_alive(pgid: int) -> bool:
    """Is any process of the group still running?  Zombies do not count:
    an orphaned resource tracker that has exited stays in the table
    until init reaps it, which can take seconds here."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError):
            continue  # the process ended while we looked
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def stop_tree(proc: subprocess.Popen, hung: bool, grace_s: float = 3.0) -> int:
    """Reap the child and everything left in its process group (ranks,
    workers).  SIGTERM first: multiprocessing's resource tracker ignores
    it and unlinks the shared memory of the ranks that die; SIGKILL
    whatever outlives the grace period."""
    if hung:
        os.killpg(proc.pid, signal.SIGTERM)
    try:
        code = proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        code = None
    deadline = time.monotonic() + grace_s
    while group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    if group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
    return proc.wait() if code is None else code


def run_child(workload: str, inputs: Path, work: Path,
              extra: list[str]) -> tuple[list[dict], dict | None]:
    """Run child.py to completion; returns its unit records and its
    ``done`` record (None if it died).  A unit that reports nothing for
    UNIT_TIMEOUT_S gets the whole process group killed and is counted
    as one failed unit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")  # no __pycache__ in the tree
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_TRACE_DIR", None)
    work.mkdir(parents=True, exist_ok=True)
    with (work / "stderr.log").open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--workload", workload, "--inputs",
             str(inputs), "--work", str(work), "--t0", repr(t0), *extra],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=work, text=True,
            start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()

        def pump() -> None:
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        units, done, hung = [], None, True
        try:
            while True:
                line = lines.get(timeout=UNIT_TIMEOUT_S)
                if line is None:
                    hung = False
                    break
                if line.startswith("@e2e "):
                    rec = json.loads(line[5:])
                    if rec.pop("ev") == "unit":
                        units.append(rec)
                    else:
                        done = rec
        except queue.Empty:
            pass
        finally:  # also on SIGTERM / Ctrl-C: never leave ranks or workers behind
            code = stop_tree(proc, hung)
            reader.join()
    if done is None:
        tail = (work / "stderr.log").read_text(errors="replace")[-2000:]
        why = f"no output for {UNIT_TIMEOUT_S:.0f} s, killed" if hung else f"exit code {code}"
        units.append({"timed": True, "s": 0.0, "ok": False, "attempted": 1, "failed": 1,
                      "problems": [f"workload subprocess died ({why}): {tail.strip()}"]})
    return units, done


# -- one workload --------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, args) -> dict:
    """One workload in one fresh subprocess; returns the result object."""
    trace = bool(args.trace)
    extra = ["--trace", str(int(trace)), "--seconds", repr(args.seconds),
             "--units", str(args.units or (TRACE_PAIRS if trace else 0))]
    if name == "ga_direct":  # the one workload with a stored cross-host reference
        if args.seed == DEFAULT_SEED or args.regenerate_reference:
            extra += ["--reference", str(REFERENCE)]
        else:
            print(f"# {name}: {REFERENCE.name} is for seed {DEFAULT_SEED}; invariant checks "
                  "only (finite, bit-equal across units)")
    if args.regenerate_reference:
        extra += ["--write-reference"]
    if args.corrupt_unit is not None:
        extra += ["--corrupt-unit", str(args.corrupt_unit)]

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=SCRATCH) as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        gen_s = make_inputs(name, args.seed, inputs)
        units, done = run_child(name, inputs, tmp / "work", extra)

    ok_units = [u for u in units if u["timed"] and u["ok"]]
    timed = [u["s"] for u in ok_units]
    problems = [p for u in units for p in u.get("problems", [])]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    correct = not problems and failed == 0 and done is not None and bool(timed)

    metrics: dict[str, dict] = {}
    if done and timed:
        q1, med, q3 = quartiles(timed)
        print(f"{name}: unit wall median {med:.4f} s over k={len(timed)} timed units, "
              f"{sum(timed):.1f} s (quartiles {q1:.4f} / {q3:.4f}, min {min(timed):.4f}, "
              f"max {max(timed):.4f})")
        if not trace:  # what is reported: each unit over its two calibration slices
            calib = [u["calib_s"] for u in ok_units]
            q1, tts, q3 = quartiles([u["norm_s"] for u in ok_units])
            print(f"{name}: calibration slice median {statistics.median(calib):.4f} s "
                  f"(min {min(calib):.4f}, max {max(calib):.4f}); tts_s = median unit / "
                  f"adjacent slices = {tts:.4f} s at reference speed (quartiles {q1:.4f} / "
                  f"{q3:.4f}); set-up wall {done['setup_raw_s']:.4f} s")
        if trace:
            layers = dict(done["layers"])
            layers["lattice.gauge_gen_s"] = gen_s
            known = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
            unknown = sorted(set(layers) - set(known))
            if unknown:
                problems.append(f"layer metrics missing from BENCHMARK.json: {unknown}")
                correct = False
            # a layer that is not on this workload's path reads 0
            metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                       for k, u in known.items()}
        else:
            metrics = {
                "tts_s": {"value": tts, "unit": "s"},
                "setup_s": {"value": done["setup_s"], "unit": "s"},
                "peak_rss_mb": {"value": done["peak_rss_mb"], "unit": "MB"},
            }
        for k, m in metrics.items():
            if m["value"] or not trace:  # layers off this workload's path read 0: not listed
                print(f"  {name}/{k} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"!! {name}: {p}", file=sys.stderr)
    if not correct:
        print(f"!! {name}: INCORRECT ({failed} of {attempted} operations failed)", file=sys.stderr)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main() -> int:
    names = [w["name"] for w in SPEC.get("workloads", [])]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC.get("run_seconds"),
                    help="timed region (units and their calibration slices): ends at the "
                         "unit nearest to it, and never before 4 units")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: the traced pass (per-layer metrics) instead of the timed one")
    ap.add_argument("--units", type=int, default=0,
                    help="exactly this many timed units (smoke tests); with --trace, "
                         f"plain/traced pairs (default {TRACE_PAIRS})")
    ap.add_argument("--regenerate-reference", action="store_true",
                    help=f"rewrite {REFERENCE.name} from a ga_direct run at this seed")
    ap.add_argument("--corrupt-unit", type=int, help=argparse.SUPPRESS)  # test hook
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").exists() or not names:
        print(f"error: {SRC}/repro or BENCHMARK.json not found - nothing to benchmark",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so subprocesses are reaped
    chosen = [args.workload] if args.workload else names
    if args.regenerate_reference:
        chosen = ["ga_direct"]
    results = {name: run_workload(name, args) for name in chosen}
    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
