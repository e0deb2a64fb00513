"""openchain benchmark: one workload, its end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced: set-up time over several fresh interpreters, then timed runs of
``runner.run`` in a child process (``measure.py``). ``--trace 1`` reports the
per-layer metrics from traced runs. Every run's output is checked. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, stamped with the
environment, goes to ``.bench_out/BENCH_<workload>[-trace].json``.

The workloads are fixed problems (seed 0): ``--seed`` is recorded with the
result but changes no input, so that every run can be checked against the
stored reference outputs.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PINNED_ENV, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
TIME_LIMIT = 170.0        # seconds for the whole invocation


def source_digest(root):
    """SHA-256 over the checkout's src/ tree, a commit id without git."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_child(cmd, root, env, timeout):
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}:\n{err}")
    return out


def setup_seconds(root, env, workload, deadline):
    """Median wall time of a fresh interpreter building the workload."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        run_child(cmd, root, env, deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(m, setup):
    runs = m["run_s"]
    run_s = statistics.median(runs)
    return {
        "run_s": run_s,
        "sim_rate": m["model_time"] / run_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": m["peak_rss_mb"],
        "trunc_weight_max": m["trunc_weight_max"],
        "fail_frac": m["failed"] / m["attempted"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="openchain benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + TIME_LIMIT
    root = Path.cwd()
    if not (root / "src" / "openchain" / "__init__.py").is_file():
        print("run from the root of an openchain checkout: src/openchain is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".bench_out"
    work.mkdir(exist_ok=True)
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": path}
    setup = [] if args.trace else setup_seconds(root, env, args.workload, deadline)
    raw_path = work / f"measure-{args.workload}.json"
    run_child([sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work),
               "--out", str(raw_path)],
              root, env, deadline - time.monotonic())
    m = json.loads(raw_path.read_text())

    # no traced run passed its check: values stay null and correct is false
    values = m.get("layers", {}) if args.trace else end_to_end(m, setup)
    metrics = {w["name"]: {"value": values.get(w["name"]), "unit": w["unit"]}
               for w in wanted}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "all_values": values,
        "setup_s_samples": setup, "run_s_samples": m["run_s"],
        "traced_run_s_samples": m["traced_run_s"],
        "attempted": m["attempted"], "failed": m["failed"],
        "problems": m["problems"], "bit_identical_runs": m["bit_identical_runs"],
        "environment": {**m["environment"], "git_commit": git_commit(root),
                        "src_sha256": source_digest(root)},
        "wall_s": time.monotonic() - started,
    }
    suffix = "-trace" if args.trace else ""
    (work / f"BENCH_{args.workload}{suffix}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    for problem in m["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: {m['attempted']} runs, {m['failed']} failed, "
          f"{m['bit_identical_runs']} bit-identical to the reference")
    if not args.trace:
        print(f"  fail_frac = {values['fail_frac']} (failed / attempted)")
    for name, v in metrics.items():
        print(f"  {name} = {v['value']} {v['unit']}")
    if args.trace:
        print("  layer seconds, inclusive and self (in the report, not the result):")
        layers = sorted((k[:-2] for k in values if k.endswith(".s")),
                        key=lambda k: -values[k + ".s"])
        for name in layers:
            if values[name + ".s"] >= 1e-3:
                print(f"    {name}.s = {values[name + '.s']:.4f} s, "
                      f"self {values.get(name + '.self_s', 0.0):.4f} s")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps({"correct": m["failed"] == 0, "attempted": m["attempted"],
                      "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
