"""monoapprox benchmark: `monoapprox approximate` end to end, one workload per run.

    python3 perfbench/run.py --workload mc-sign-d4 --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout holding ``src/`` and
``perfbench/``).  The workloads are in ``workloads.py``, the layer-to-metric
table in ``LAYERS.md``.

This process uses the standard library only.  It starts ``worker.py`` with
BLAS threads pinned to 1: first ``SETUP_REPEATS`` times with
``--setup-only``, then once to measure.  ``setup_s`` is the median time from
process start to ``ready`` over all of those starts.  The measuring worker
runs one replication at a time (a closed loop with one caller) and checks its
outputs.

Every metric is printed by name and unit, the run's numbers and environment
are written to ``.perfbench_out/``, and the last line of stdout is one JSON
object holding the metrics ``BENCHMARK.json`` lists for the ``--trace`` mode:
``end_to_end`` untraced, ``per_layer`` traced.  The exit code is 1 if any
replication raised or failed its output check, 2 if the checkout has no
``src/monoapprox``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10
WORKER_TIMEOUT_S = 150
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NOISE_NOTE = (
    "shared 2-CPU VM: a fixed numpy loop varied by about 7% between 0.7 s chunks, "
    "and 6-replication medians of mc-sign-d4 ranged 1.48-1.89 s"
)

# Units of the metrics that BENCHMARK.json does not gate.
EXTRA_UNITS = {"l1_err.mean": "L1", "failed_frac": "ratio"}


def _start_worker(args, extra: list[str]) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--tiny"] * args.tiny + extra
    env = dict(os.environ, **BLAS_ENV)
    started = time.perf_counter()
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True), started


def _await_ready(proc: subprocess.Popen, started: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not get ready (exit code {proc.wait(WORKER_TIMEOUT_S)})")
    return time.perf_counter() - started


def _measure(args) -> tuple[dict, list[float]]:
    setups = []
    for _ in range(SETUP_REPEATS):
        proc, started = _start_worker(args, ["--setup-only"])
        with proc:
            setups.append(_await_ready(proc, started))
            proc.wait(WORKER_TIMEOUT_S)
    proc, started = _start_worker(args, [])
    with proc:
        try:
            setups.append(_await_ready(proc, started))
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), setups


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monoapprox" / "cli.py").is_file():
        print(f"no monoapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    gated = spec["per_layer" if args.trace else "end_to_end"]

    result, setups = _measure(args)
    values = dict(result["metrics"], **{"setup_s": statistics.median(setups)})
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    reps, attempted, failed = result["replications"], result["attempted"], result["failed"]
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "rep_s.p50": f"median of {len(result['rep_s'])} replications",
        "reps_per_s": f"{reps} replications in {result['timed_s']:.1f} s; n={result['n_used']}, "
                      f"{result['n_probe']} probes each",
        "l1_err.mean": "mean over the first replications, fixed per seed",
        "failed_frac": f"{failed} of {attempted} replications",
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in ("setup_s", "rep_s.p50", "reps_per_s", "l1_err.mean", "rss_peak_mb", "failed_frac"):
        print(f"  {name:<16} {values[name]:<14.6g} {units[name]:<8} {notes.get(name, '')}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<48} {values[m['name']]:<14.6g} {m['unit']}")
    for rep, detail in result["failures"].items():
        print(f"  FAILED replication {rep}: {detail}")

    env = {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "blas_threads": BLAS_ENV,
        "workload_seed": args.seed,
        "n_used": result["n_used"],
        "n_probe": result["n_probe"],
        "replications": reps,
        "noise": NOISE_NOTE,
    }
    print("env " + json.dumps(env))
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, env=env, setup_s=setups, args=vars(args))
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in gated},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
