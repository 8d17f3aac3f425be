"""survcheck benchmark: three workloads through the public API, timed end to end.

Usage, from the root of a checkout (survcheck is imported from its `src/`):

    python3 perfbench/run.py --workload casestudy --seed 0 --seconds 35 --trace 0

Workloads are described in `workloads.py`.  One process, one client, a
closed loop: after set-up, the workload's timed pass repeats until the next
one would end past ``--seconds`` (at least twice).  BLAS gets ``nproc``
threads.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import plus the
median of three set-ups), ``iter_s`` (median iteration) and ``peak_rss_mb``.
It also prints ``min_ess_per_s`` (0 unless every fit passes ``diagnose``),
``converged_frac`` and ``error_frac``.  Those can read 0, which a gated
end-to-end metric may not, so the JSON result carries them only with
``--trace 1``, among the per-layer metrics.

``--trace 1`` alternates untraced and traced iterations.  Traced ones
record spans around every public survcheck function (see `tracing.py`) and
give the per-layer metrics as medians over traced iterations; the tracing
overhead is the traced minus the untraced median iteration.  Spans go to
``perfbench/out/spans-<workload>-seed<n>.json``.

Every run checks its outputs: a failed check or a raised call is a failed
operation, and each iteration's output digest must equal the previous one.
The last line of stdout is the JSON result; a full record with provenance
goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing  # stdlib only; workloads.py imports numpy, so it waits for main

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPS = 3
MIN_ITERS = 2
HARD_STOP_S = 120.0  # stop iterating regardless, to end well within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and sampler settings, for the self-test")
    return ap.parse_args(argv)


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# provenance


def blas_threads() -> int:
    """Thread count the BLAS linked into numpy reports, else the variable we set."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches its dependencies
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha() -> str:
    if not (ROOT / ".git").exists():  # never look above the checkout
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def provenance(args, nproc: int) -> dict:
    import numpy
    import scipy

    files = sorted(SRC.rglob("*.py"))
    texts = [p.read_bytes() for p in files]
    return {
        "git_sha": git_sha(),
        "src_sha256": hashlib.sha256(b"".join(texts)).hexdigest(),
        "src_lines": sum(t.count(b"\n") for t in texts),
        "src_files": len(files),
        "nproc": nproc,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------
# fits


def fit_summaries(fits, diagnose) -> list[dict]:
    out = []
    for name, seconds, result, traced in fits:
        if result is None:
            out.append({"preset": name, "seconds": seconds, "ok": False, "traced": traced,
                        "min_ess": 0.0, "max_rhat": float("inf"), "accept_rate": 0.0})
            continue
        report = diagnose(result)
        ess = [v for v in report["ess"].values() if v == v]
        rhat = [v for v in report["rhat"].values() if v == v]
        out.append({
            "preset": name, "seconds": seconds, "ok": bool(report["ok"]), "traced": traced,
            "min_ess": min(ess) if ess else 0.0,
            "max_rhat": max(rhat) if rhat else float("nan"),
            "accept_rate": statistics.fmean(report["accept_rate"]),
        })
    return out


def convergence_metrics(fits: list[dict]) -> dict:
    """converged_frac and the gated min_ess_per_s: an unconverged fit scores 0."""
    if not fits:
        return {"converged_frac": 0.0, "min_ess_per_s": 0.0, "fits": 0}
    timed = [f for f in fits if not f["traced"]] or fits
    return {
        "converged_frac": sum(f["ok"] for f in fits) / len(fits),
        "min_ess_per_s": min(f["min_ess"] / f["seconds"] if f["ok"] else 0.0 for f in timed),
        "fits": len(fits),
    }


def preset_metrics(fits: list[dict], presets) -> dict:
    out = {}
    for p in presets:
        mine = [f for f in fits if f["preset"] == p]
        out[f"sampler.min_bulk_ess.{p}"] = min((f["min_ess"] for f in mine), default=0.0)
        out[f"sampler.max_rhat.{p}"] = max((f["max_rhat"] for f in mine), default=0.0)
        out[f"sampler.accept_rate.{p}"] = (statistics.fmean(f["accept_rate"] for f in mine)
                                           if mine else 0.0)
    return out


# ---------------------------------------------------------------------------
# the measurement loop


def measure(workload, inst, args, import_s):
    attempted = failed = 0
    failures: list[str] = []

    def tally(ops):
        nonlocal attempted, failed
        attempted += ops.attempted
        failed += ops.failed
        failures.extend(f"{k}: {'; '.join(v)}" for k, v in ops.failures.items())

    from workloads import OperationFailed, Ops

    diagnose = workload.sc.sampler.diagnose

    setup_times, setup_layers, setup_fits = [], [], []
    digest = None
    for rep in range(SETUP_REPS):
        traced = bool(args.trace) and rep == SETUP_REPS - 1
        mark = inst.mark()
        n_fits = len(inst.fits)
        start = time.perf_counter()
        with inst.traced() if traced else contextlib.nullcontext():
            workload.setup()
        setup_times.append(time.perf_counter() - start)
        if traced:
            setup_layers.append(inst.region_metrics(mark, tracing.SETUP_TIME_KEYS))
        if rep == 0:
            setup_fits = fit_summaries(inst.fits[n_fits:], diagnose)
        ops = Ops()
        ops.attempted += 1
        previous, digest = digest, workload.state_digest()
        ops.check("set-up", previous is None or digest == previous,
                  "set-up is not reproducible")
        tally(ops)
    del inst.fits[:]

    times = {False: [], True: []}
    layer_rows, iter_fits = [], []
    digest = None
    loop_start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        ops = Ops()
        mark = inst.mark()
        start = time.perf_counter()
        try:
            with inst.traced() if traced else contextlib.nullcontext():
                outputs = workload.iterate(ops)
        except OperationFailed:
            outputs = None
        times[traced].append(time.perf_counter() - start)
        if traced:
            layer_rows.append(inst.region_metrics(mark, tracing.ITER_TIME_KEYS))
        iter_fits += fit_summaries(inst.fits, diagnose)
        del inst.fits[:]
        previous, digest = digest, (workload.verify(outputs, ops) if outputs is not None
                                    else None)
        if i > 0:
            ops.attempted += 1
            ops.check("reproducibility", digest is not None and digest == previous,
                      "iteration output differs from the previous same-seed iteration")
        tally(ops)
        i += 1
        elapsed = time.perf_counter() - loop_start
        enough = len(times[False]) >= MIN_ITERS and (
            not args.trace or len(times[True]) >= MIN_ITERS)
        typical = statistics.median(times[False] + times[True])
        if (enough and elapsed + typical > args.seconds) or elapsed > HARD_STOP_S:
            break

    fits = setup_fits if workload.fit_phase == "setup" else iter_fits
    conv = convergence_metrics(fits)
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "iter_s": statistics.median(times[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "min_ess_per_s": conv["min_ess_per_s"],
        "converged_frac": conv["converged_frac"],
        "error_frac": failed / attempted,
    }
    record = {
        "end_to_end": e2e,
        "convergence": {**extra, "fits": conv["fits"],
                        "status": "converged" if conv["converged_frac"] == 1 else "unconverged"},
        "iterations": {"untraced_s": times[False], "traced_s": times[True]},
        "setup": {"import_s": import_s, "reps_s": setup_times},
        "fits": fits,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if args.trace:
        per_layer = {k: statistics.median(row[k] for row in layer_rows)
                     for k in layer_rows[0]}
        per_layer.update({k: setup_layers[0][k] for k in tracing.SETUP_TIME_KEYS})
        per_layer.update(preset_metrics(fits, tracing.PRESETS))
        per_layer.update(extra)
        per_layer["trace.overhead_s"] = statistics.median(times[True]) - e2e["iter_s"]
        per_layer["trace.overhead_frac"] = per_layer["trace.overhead_s"] / e2e["iter_s"]
        record["per_layer"] = per_layer
    return record


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, record, units, prov):
    print(f"# survcheck benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    conv = record["convergence"]
    notes = {
        "setup_s": f"import {fmt(record['setup']['import_s'])} s + median of "
                   f"{len(record['setup']['reps_s'])} set-ups",
        "iter_s": f"median of {len(record['iterations']['untraced_s'])} untraced iterations",
        "min_ess_per_s": (f"{conv['status']}: converged_frac {fmt(conv['converged_frac'])} "
                          f"of {conv['fits']} fits"),
        "error_frac": f"{record['failed']} of {record['attempted']} operations failed",
    }
    shown = {**record["end_to_end"], **{k: conv[k] for k in
                                        ("min_ess_per_s", "converged_frac", "error_frac")}}
    shown_units = {**E2E_UNITS, "min_ess_per_s": "1/s", "converged_frac": "frac",
                   "error_frac": "frac"}
    for name, value in shown.items():
        print(f"{name:<16} {fmt(value):>12} {shown_units[name]:<6} {notes.get(name, '')}")
    if args.trace:
        for name, value in record["per_layer"].items():
            print(f"{name:<44} {fmt(value):>12} {units.get(name, '')}")
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    source = record["per_layer"] if args.trace else record["end_to_end"]
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "survcheck" / "__init__.py").is_file():
        print(f"error: no survcheck sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = str(nproc)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import survcheck
    import survcheck.cli  # noqa: F401  (the casestudy entry point)
    import_s = time.perf_counter() - start
    if Path(survcheck.__file__).resolve().parent != (SRC / "survcheck").resolve():
        print(f"error: imported survcheck from {survcheck.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    inst = tracing.Instrument(survcheck, trace=bool(args.trace))
    try:
        inst.install()
        workload = workloads.WORKLOADS[args.workload](survcheck, args.seed, args.smoke, tmp_root)
        record = measure(workload, inst, args, import_s)
    finally:
        inst.remove()
        shutil.rmtree(tmp_root, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    prov = provenance(args, nproc)
    record["provenance"] = prov
    if args.trace:
        spans_path = OUT_DIR / f"spans-{stem}.json"
        spans_path.write_text(json.dumps({
            "fields": ["id", "parent", "name", "start", "end", "key"],
            "spans": inst.spans,
        }))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    report(args, record, units, prov)
    return 0


if __name__ == "__main__":
    sys.exit(main())
