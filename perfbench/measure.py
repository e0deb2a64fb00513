"""Timed runs of one workload in this process; ``run.py`` starts it.

Usage: python3 perfbench/measure.py --workload NAME --seconds S --trace 0|1
       --work-dir DIR --out FILE

The BLAS thread variables must be set before this process starts. Each run
is one ``runner.run(cfg)`` call, timed on its own, followed by its output
check outside the timed region. Runs repeat until ``--seconds`` have passed.
With ``--trace 1`` untraced and traced runs alternate, so the tracing
overhead is measured in the same process under the same load.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from openchain import kernels, runner

import checks
import tracing
from workloads import WORKLOADS

MIN_RUNS = 3          # untraced runs, even when --seconds is already spent
MAX_PROBLEMS = 20


def openblas_info():
    """(threads, config string) of numpy's bundled OpenBLAS, if it is found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def environment():
    threads, config = openblas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": threads,
        "openblas_config": config,
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "jit_enabled": bool(kernels.JIT_ENABLED),
        "openchain": os.path.relpath(os.path.dirname(runner.__file__)),
    }


def peak_rss_mb():
    """Largest resident set of this process or any finished child, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def layer_metrics(rec, cfg, manifest):
    """Per-layer numbers of one traced run, keyed ``<module>.<function>.<stat>``.

    ``.share`` and ``.self_share`` divide a layer's time by the run's; summed
    over pool workers, a share can exceed 1.
    """
    table = tracing.layer_table(rec)
    run_s = table["runner.run"]["s"]
    out = {}
    for name, row in table.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.s"] = row["s"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.share"] = row["s"] / run_s
        out[f"{name}.self_share"] = row["self_s"] / run_s
    out.update({f"kernels.svd.{k}": v for k, v in tracing.svd_stats(rec).items()})
    gated = table["kernels.bond_update"]["calls"]
    updates = gated + table["kernels.bond_update_nogate"]["calls"]
    out["kernels.gated_frac"] = gated / updates if updates else 0.0
    traj = table["trajectories.run_trajectory"]["durations"]
    out["trajectories.run_trajectory.p50_s"] = statistics.median(traj) if traj else 0.0
    out["trajectories.run_trajectory.max_s"] = max(traj, default=0.0)
    out["trajectories.run_trajectory.max_over_p50"] = (
        max(traj) / statistics.median(traj) if traj else 0.0)
    ens = table[tracing.ENSEMBLE]["s"]
    workers = max(1, min(cfg.threads, cfg.n_traj)) if cfg.threads > 1 else 1
    out["trajectories.run_ensemble.efficiency"] = (
        sum(traj) / (workers * ens) if ens > 0 else 0.0)
    out["trajectories.jumps"] = manifest["summary"].get("total_jumps", 0)
    out["mpdo.observe.s"] = tracing.outermost_time(rec, (
        "mpdo.all_sz", "mpdo.trace", "mpdo.renormalize_trace", "mpdo.itebd_sz",
        "mpdo.itebd_renormalize"))
    out["mpdo.observe.share"] = out["mpdo.observe.s"] / run_s
    out["traces.write_csv.bytes"] = rec.csv_bytes
    out["state.max_bond_dim"] = rec.max_bond
    out["trace.coverage"] = 1.0 - table["runner.run"]["self_s"] / run_s
    return out


def timed_run(cfg, outdir, rec):
    """One runner.run, traced when ``rec`` is given; (wall s, error or None)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    with rec if rec is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            runner.run(cfg)
            err = None
        except Exception:  # a failed operation is counted, not fatal
            err = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    return wall, err


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    work = Path(args.work_dir)
    outdir = work / "runs" / wl.name
    cfg = runner.config_from_dict(wl.run_config(outdir))

    # warm-up: one record interval, untimed, so lazy set-up is not timed
    warm = replace(cfg, t_max=cfg.dt_obs, n_traj=min(cfg.n_traj, 2),
                   output_dir=str(work / "runs" / f"{wl.name}-warmup"))
    timed_run(warm, Path(warm.output_dir), None)

    walls, traced_walls, layers, problems = [], [], [], []
    attempted = failed = identical = 0
    trunc_weight = None
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and attempted % 2 == 1
        if cfg.threads == 1:
            # the cores of a shared VM drift in speed independently: give each
            # core the same share of runs (a traced run and its untraced
            # partner share a core)
            os.sched_setaffinity(0, {cpus[attempted // (1 + args.trace) % len(cpus)]})
        rec = None
        if traced:
            shutil.rmtree(work / "spans", ignore_errors=True)
            rec = tracing.Recorder(work / "spans")
        wall, err = timed_run(cfg, outdir, rec)
        attempted += 1
        found = [err] if err else checks.check_run(wl, outdir)
        if found:
            failed += 1
            problems += found[:MAX_PROBLEMS - len(problems)]
        else:
            manifest = json.loads((outdir / "manifest.json").read_text())
            trunc_weight = manifest["summary"]["max_trunc_weight"]
            identical += checks.bit_identical(outdir, wl)
            if traced:
                rec.merge_worker_spans()
                layers.append(layer_metrics(rec, cfg, manifest))
        (traced_walls if traced else walls).append(wall)
        enough = len(walls) >= (1 if args.trace else MIN_RUNS)
        # stop when a further run would end more than half a run past the deadline
        if (time.perf_counter() + wall / 2 >= deadline and enough
                and (traced_walls or not args.trace)):
            break

    result = {
        "workload": wl.name,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "bit_identical_runs": identical,
        "run_s": walls,
        "traced_run_s": traced_walls,
        "model_time": wl.model_time(),
        "peak_rss_mb": peak_rss_mb(),
        "trunc_weight_max": trunc_weight,
        "environment": environment(),
    }
    if layers:
        merged = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
        merged["trace.overhead"] = (statistics.median(traced_walls)
                                    / statistics.median(walls))
        result["layers"] = merged
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
