"""Output checks for one workload run.

Each check returns a list of problems; an empty list means the run passed.

* Invariants on every trace file: finite values, |<sz>| <= 1, entropies >= 0,
  and the finite-MPDO ``trace`` column equal to 1.
* Agreement with the reference outputs under ``references/<workload>/``,
  which the seed code wrote with one BLAS thread (``make_references.py``).
  Values that do not depend on rounding must match exactly: the time grid,
  the bond dimension, and on ``qt-weak`` the cumulative jump counts, which
  follow from the state-independent jump times. Floating columns must agree
  within ``FLOAT_TOL``; whether the whole trace is bit-identical is reported
  separately, so a later change that only reorders arithmetic still passes.
* ``qt-strong-ensemble`` is compared statistically: ensemble means must lie
  within ``SE_MULTIPLE`` combined standard errors of the reference means,
  because a changed last bit may flip a single jump decision.

``max_step_trace_drift`` of the infinite chain is not checked; see NOTES.md.
"""

import csv
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"

FLOAT_TOL = 1e-6       # absolute, on <sz>, entropies (bits) and the trace
TRACE_TOL = 1e-9       # |Tr rho - 1| on the finite MPDO
SE_MULTIPLE = 4.0      # ensemble means: |a - b| <= k sqrt(se_a^2 + se_b^2)
SE_FLOOR = 1e-9        # where every trajectory agrees (t = 0) the SE is 0

EXACT_COLUMNS = {"t", "jumps_cum"}


def read_trace(path):
    """(header, {column: list of floats}) from a trace CSV."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    cols = {h: [float(r[k]) for r in rows[1:]] for k, h in enumerate(header)}
    return header, cols


def invariants(path, engine):
    problems = []
    header, cols = read_trace(path)
    name = Path(path).name
    if not cols.get("t"):
        return [f"{name}: no rows"]
    for h, vals in cols.items():
        bad = [v for v in vals if not math.isfinite(v)]
        if bad:
            problems.append(f"{name}:{h}: non-finite value {bad[0]}")
            continue
        if h.startswith("sz_site_") and max(abs(v) for v in vals) > 1.0 + 1e-12:
            problems.append(f"{name}:{h}: |<sz>| > 1 ({max(vals, key=abs)})")
        if h.startswith("S_") and min(vals) < 0.0:
            problems.append(f"{name}:{h}: negative entropy {min(vals)}")
    if engine == "mpdo":
        worst = max(abs(v - 1.0) for v in cols["trace"])
        if worst > TRACE_TOL:
            problems.append(f"{name}:trace: |Tr rho - 1| = {worst:.3e} > {TRACE_TOL}")
    return problems


def compare_traces(path, ref_path):
    """Problems from comparing a trace CSV against its reference."""
    name = Path(path).name
    header, cols = read_trace(path)
    ref_header, ref = read_trace(ref_path)
    if header != ref_header:
        return [f"{name}: columns differ from the reference"]
    if len(cols["t"]) != len(ref["t"]):
        return [f"{name}: {len(cols['t'])} rows, reference has {len(ref['t'])}"]
    problems = []
    for h in header:
        dev = max(abs(a - b) for a, b in zip(cols[h], ref[h]))
        if h in EXACT_COLUMNS and dev != 0.0:
            problems.append(f"{name}:{h}: differs from the reference (max {dev:.3e})")
        elif dev > FLOAT_TOL:
            problems.append(f"{name}:{h}: max deviation {dev:.3e} > {FLOAT_TOL}")
    return problems


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _config_problems(manifest, config):
    got = {k: v for k, v in manifest["config"].items() if k != "output_dir"}
    want = {k: v for k, v in config.items() if k != "output_dir"}
    diff = sorted(k for k in want if got.get(k) != want[k])
    return [f"manifest config differs on {diff}"] if diff else []


def _ensemble_problems(outdir, ref_dir):
    run, ref = (_read_json(Path(d) / "ensemble.json") for d in (outdir, ref_dir))
    problems = []
    if run["n_traj"] != ref["n_traj"] or run["times"] != ref["times"]:
        return ["ensemble: n_traj or time grid differs from the reference"]
    for key in ("te_mean", "s_center_mean", "sz_mean"):
        se_key = key.replace("_mean", "_stderr")
        worst = 0.0
        for a, b, sa, sb in zip(_flat(run[key]), _flat(ref[key]),
                                _flat(run[se_key]), _flat(ref[se_key])):
            limit = SE_MULTIPLE * math.hypot(sa, sb) + SE_FLOOR
            worst = max(worst, abs(a - b) / limit)
        if worst > 1.0:
            problems.append(f"ensemble:{key}: {worst * SE_MULTIPLE:.2f} "
                            f"standard errors from the reference")
    jumps = [_jumps_stats(d) for d in (outdir, ref_dir)]
    (ma, sa), (mb, sb) = jumps
    if abs(ma - mb) > SE_MULTIPLE * math.hypot(sa, sb) + SE_FLOOR:
        problems.append(f"ensemble: mean final jump count {ma} vs reference {mb}")
    return problems


def _flat(x):
    return [v for row in x for v in row] if x and isinstance(x[0], list) else x


def _jumps_stats(outdir):
    """Mean and standard error of the final jump count over trajectory files."""
    finals = [read_trace(p)[1]["jumps_cum"][-1]
              for p in sorted((Path(outdir) / "trajectories").glob("traj_*.csv"))]
    n = len(finals)
    mean = sum(finals) / n
    var = sum((x - mean) ** 2 for x in finals) / (n - 1)
    return mean, math.sqrt(var / n)


def check_run(workload, outdir):
    """Every problem found in one run's output directory."""
    outdir = Path(outdir)
    ref_dir = REFERENCES / workload.name
    engine = workload.config["engine"]
    try:
        manifest = _read_json(outdir / "manifest.json")
        problems = _config_problems(manifest, workload.run_config(outdir))
        traj_files = sorted((outdir / "trajectories").glob("traj_*.csv"))
        for path in [outdir / "trace.csv", *traj_files]:
            problems += invariants(path, engine)
        ref_manifest = _read_json(ref_dir / "manifest.json")
        summary, ref_summary = manifest["summary"], ref_manifest["summary"]
        if engine == "qt" and len(traj_files) != workload.config["n_traj"]:
            problems.append(f"{len(traj_files)} trajectory files written")
        if engine == "qt" and workload.config["n_traj"] > 1:
            problems += _ensemble_problems(outdir, ref_dir)
        else:
            problems += compare_traces(outdir / "trace.csv", ref_dir / "trace.csv")
            for path in traj_files:
                problems += compare_traces(path, ref_dir / "trajectories" / path.name)
            for key in ("max_bond_dim", "total_jumps"):
                if key in ref_summary and summary.get(key) != ref_summary[key]:
                    problems.append(f"manifest {key} {summary.get(key)} "
                                    f"!= reference {ref_summary[key]}")
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems


def bit_identical(outdir, workload):
    """Whether trace.csv matches the reference byte for byte."""
    ref = REFERENCES / workload.name / "trace.csv"
    return (Path(outdir) / "trace.csv").read_bytes() == ref.read_bytes()
