"""Independent recomputation of one `approximate` replication's L1 error.

The inputs are rebuilt from the CLI seed scheme ``SeedSequence((seed, 0,
stream))`` (stream 0 the fit samples, 1 the family draw, 2 the probes) with
the public ``family_from_spec``, ``draw_samples`` and
``SampleSet.with_resolution``.  The fitted model's outputs at the probes are
then recomputed without touching the estimator code the CLI runs:

* mc modes use the paper's identity ``n * h(x) = sum_i y_i * chi(b_i(x))``
  with ``chi_table``, batched over probes.  Sign decisions for sign-valued
  samples are exact integers; the generalized output is the threshold-cut sum
  ``1/2 * sum_i (y_{i+1} - y_i) * sgn(g_i(x))`` over the stably sorted values.
* det uses the corner rule evaluated on the whole lattice at once.

The recomputed error must agree with the CLI's to within ``TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from monoapprox.approx_mc import chi_table, draw_samples
from monoapprox.bounds import choose_params
from monoapprox.functions import eval_batch, family_from_spec

TOLERANCE = 1e-12
_CHUNK_CELLS = 2_000_000  # probes x samples handled per numpy step


@dataclass
class CheckResult:
    ok: bool
    detail: str
    occupied: int = 0  # probes whose resolution-r cell holds a sample (mc only)
    probes: int = 0


def _seed(cfg, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((cfg.seed, 0, stream))


def _cell_keys(points: np.ndarray, r: int) -> np.ndarray:
    scale = 1 << r
    return np.minimum((points * scale).astype(np.int64), scale - 1)


def _cell_codes(keys: np.ndarray, r: int) -> np.ndarray:
    return (keys << (r * np.arange(keys.shape[1], dtype=np.int64))).sum(axis=1)


def _mc_outputs(cfg, samples, probe_keys: np.ndarray, k: int, r: int) -> np.ndarray:
    n = samples.n
    values = samples.values
    chi = chi_table(cfg.d, k, r)
    fits_int64 = (2 * n + 4) * max(abs(c) for c in chi) < 2**62
    chi_arr = np.asarray(chi, dtype=np.int64 if fits_int64 else object)
    keys = samples.digit_keys
    sign_valued = bool(np.all(np.abs(values) == 1.0))
    if cfg.mode == "generalized":
        order = np.argsort(values, kind="stable")
        keys, values = keys[order], values[order]
        steps = np.diff(np.concatenate([[-1.0], values, [1.0]]))
    y_int = values.astype(np.int64) if sign_valued else None
    out = np.empty(len(probe_keys))
    chunk = max(1, _CHUNK_CELLS // max(n, 1))
    for lo in range(0, len(probe_keys), chunk):
        block = probe_keys[lo : lo + chunk]
        b = (keys[None, :, :] == block[:, None, :]).sum(axis=2)
        chi_b = chi_arr[b]
        if cfg.mode == "generalized":
            prefix = np.concatenate([np.zeros((len(block), 1), dtype=chi_b.dtype), np.cumsum(chi_b, axis=1)], axis=1)
            numerators = prefix[:, -1:] - 2 * prefix
            out[lo : lo + chunk] = 0.5 * (np.where(numerators >= 0, 1.0, -1.0) @ steps)
        elif cfg.mode == "sign" and sign_valued:
            numerators = chi_b @ y_int
            out[lo : lo + chunk] = np.where(numerators >= 0, 1.0, -1.0)
        else:
            h = (chi_b.astype(float) @ values) / n
            out[lo : lo + chunk] = h if cfg.mode == "linear" else np.where(h >= 0.0, 1.0, -1.0)
    return out


def check_mc(cfg, cli_error: float) -> CheckResult:
    if cfg.eps is not None:
        params = choose_params(cfg.eps, cfg.d)
        k, r, n = params.k, params.r, params.n
    else:
        k, r, n = cfg.k, cfg.r, cfg.n
    if cfg.n_cap:
        n = min(n, cfg.n_cap)
    truth = family_from_spec(cfg.family, cfg.d, _seed(cfg, 1))
    samples = draw_samples(cfg.d, n, truth, _seed(cfg, 0)).with_resolution(r)
    probes = np.random.default_rng(_seed(cfg, 2)).random((cfg.n_probe, cfg.d))
    probe_keys = _cell_keys(probes, r)
    outputs = _mc_outputs(cfg, samples, probe_keys, k, r)
    reference = float(np.abs(eval_batch(truth, probes) - outputs).mean())
    occupied = int(np.isin(_cell_codes(probe_keys, r), _cell_codes(samples.digit_keys, r)).sum())
    ok = abs(reference - cli_error) <= TOLERANCE
    detail = f"cli error {cli_error!r} vs reference {reference!r}"
    return CheckResult(ok, detail, occupied, len(probes))


def check_det(cfg, cli_error: float, cli_std_error: float) -> CheckResult:
    d, m = cfg.d, cfg.m
    truth = family_from_spec(cfg.family, d, _seed(cfg, 1))
    axes = np.meshgrid(*([np.arange(1, m) / m] * d), indexing="ij")
    lattice = eval_batch(truth, np.stack([a.ravel() for a in axes], axis=-1)).reshape((m - 1,) * d)
    probes = np.random.default_rng(_seed(cfg, 2)).random((cfg.n_probe, d))
    cells = np.minimum((probes * m).astype(np.int64), m - 1)
    at_lower = (cells == 0).any(axis=1)
    at_upper = (cells == m - 1).any(axis=1)
    lower = np.where(at_lower, -1.0, lattice[tuple(np.maximum(cells - 1, 0).T)])
    upper = np.where(at_upper, 1.0, lattice[tuple(np.minimum(cells, m - 2).T)])
    reference = float(np.abs(eval_batch(truth, probes) - 0.5 * (lower + upper)).mean())
    guarantee = d / m + 4.0 * cli_std_error
    ok = abs(reference - cli_error) <= TOLERANCE and cli_error <= guarantee
    detail = f"cli error {cli_error!r} vs reference {reference!r}, guarantee {guarantee!r}"
    return CheckResult(ok, detail)


def check_replication(cfg, row: dict) -> CheckResult:
    """Check the CLI's first row for ``cfg`` against an independent recomputation."""
    if cfg.algo == "det":
        return check_det(cfg, row["error"], row["std_error"])
    return check_mc(cfg, row["error"])
