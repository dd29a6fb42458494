"""One benchmark process: set up, run replications for a time budget, check, report.

Usage (normally started by ``run.py``, which pins BLAS threads to 1)::

    python3 perfbench/worker.py --workload mc-sign-d4 --seed 1 --seconds 20 --trace 0

The process prints ``ready`` once imports and workload generation are done,
then runs whole rounds of replications (one replication per family of the
workload's rotation) until ``--seconds`` have passed and at least ``L1_REPS``
replications are done, checks the first round against ``check.py`` outside
the timed section, and prints one JSON object as its last line.

With ``--trace 1`` every replication runs twice on the same inputs, untraced
and traced, alternating which goes first; the pair's times give
``trace.overhead_frac`` and the traced runs give the per-layer metrics.
``--setup-only`` exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
from monoapprox import cli  # noqa: E402
from monoapprox.cli import ExperimentConfig  # noqa: E402

from check import check_replication  # noqa: E402
from tracing import Tracer, computed_bytes, layer_metrics  # noqa: E402
from workloads import L1_REPS, WORKLOADS  # noqa: E402


def _timed(fn, *args):
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return its metrics, failures and raw samples."""
    workload = WORKLOADS[name]
    rounds = len(workload.families)
    tracer = Tracer() if trace else None
    rows: dict[int, dict] = {}
    failures: dict[int, str] = {}
    rep_s: list[float] = []
    traced_s: list[float] = []
    model_bytes: list[int] = []
    first_cfg = ExperimentConfig(**workload.config_kwargs(seed, 0, tiny))
    rep = 0
    started = time.perf_counter()
    while rep < L1_REPS or rep % rounds or time.perf_counter() - started < seconds:
        cfg = ExperimentConfig(**workload.config_kwargs(seed, rep, tiny))
        try:
            if tracer is None:
                elapsed, result = _timed(cli.cmd_approximate, cfg)
                rep_s.append(elapsed)
            else:
                def traced_run():
                    with tracer:
                        return _timed(tracer.replication, rep, cli.cmd_approximate, cfg)

                if rep % 2:
                    traced = traced_run()
                    plain = _timed(cli.cmd_approximate, cfg)
                else:
                    plain = _timed(cli.cmd_approximate, cfg)
                    traced = traced_run()
                rep_s.append(plain[0])
                traced_s.append(traced[0])
                if tracer.models:
                    model_bytes.append(computed_bytes(tracer.models.pop()))
                result = plain[1]
                if traced[1] != result:
                    failures[rep] = "traced and untraced replications disagree"
            rows[rep] = result[0]
        except Exception as exc:  # a replication that raises counts as failed; the run goes on
            failures[rep] = f"{type(exc).__name__}: {exc}"
        rep += 1
    timed_s = time.perf_counter() - started
    rss_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    occupied = probes = 0
    for checked in range(min(rounds, rep)):
        if checked in failures:
            continue
        cfg = ExperimentConfig(**workload.config_kwargs(seed, checked, tiny))
        outcome = check_replication(cfg, rows[checked])
        occupied += outcome.occupied
        probes += outcome.probes
        if not outcome.ok:
            failures[checked] = outcome.detail

    first = [rows[i]["error"] for i in range(L1_REPS) if i in rows]
    metrics = {
        "rep_s.p50": statistics.median(rep_s) if rep_s else 0.0,
        "reps_per_s": len(rows) / timed_s,
        "l1_err.mean": float(np.mean(first)) if first else 0.0,
        "rss_peak_mb": rss_peak_mb,
        "failed_frac": len(failures) / rep,
    }
    if tracer is not None:
        metrics.update(layer_metrics(tracer.spans, max(len(traced_s), 1)))
        metrics["approx_mc.model_bytes"] = float(np.mean(model_bytes)) if model_bytes else 0.0
        metrics["approx_mc.query_cell_occupied_frac"] = occupied / probes if probes else 0.0
        metrics["approx_mc.query_cell_probes"] = probes
        metrics["trace.overhead_frac"] = sum(traced_s) / sum(rep_s) - 1.0 if rep_s else 0.0
    return {
        "metrics": metrics,
        "attempted": rep,
        "failed": len(failures),
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "replications": len(rows),
        "timed_s": timed_s,
        "rep_s": rep_s,
        "errors": [rows[i]["error"] for i in sorted(rows)],
        "n_used": rows[0]["n_used"] if 0 in rows else None,
        "n_probe": first_cfg.n_probe,
        "numpy": np.__version__,
        "spans": [vars(s) for s in tracer.spans] if tracer is not None else [],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Workload generation: the first replication's config, built and validated.
    ExperimentConfig(**WORKLOADS[args.workload].config_kwargs(args.seed, 0, args.tiny))
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
