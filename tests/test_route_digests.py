"""One SHA-256 per (route, mode) over a fixed grid of ``approx_mc`` models.

All three modes read one reconstruction ``h`` off one sample batch, whichever
route a model stores the batch by, so the routes must agree byte for byte.
Each model of the grid is labelled by its route (``_label``), ``model(q)`` and
``reconstruction_value(model, q)`` go into the digest of its (route, mode),
and ``modes_agree`` asserts the identities the construction guarantees across
modes.

``golden/route-digests.json`` holds the digests with the numpy version, the
BLAS and one float dot they were recorded with; where one differs the test
fails and names both.  Rewrite the file, and see which (route, mode) digests
changed, with

    PYTHONPATH=src python tests/test_route_digests.py
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np

from monoapprox import approx_mc
from monoapprox.approx_mc import SampleSet, WaveletModel, reconstruction_value

DIGESTS = Path(__file__).parent / "golden" / "route-digests.json"

_KINDS = {
    "sign": lambda rng, n: rng.choice([-1.0, 1.0], n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "quarter": lambda rng, n: rng.integers(-4, 5, n) / 4,
    "negative": lambda rng, n: -(rng.integers(0, 3, n) / 2),  # -0.0 among them
}

# Every value each part of a label takes over the grid, and no other.
_REACHED = {
    "route": {"tables", "full-cell run", "coordinate runs of indices", "coordinate runs of ranks", "cell intersection"},
    "cells": {"dense", "sorted", "-"}, "pairs": {"uint32", "int64", "argsort", "-"},
    "keys": {"uint8", "uint16", "int64"}, "weights": {"int64", "object", "float64", "-"}, "chi": {"int64", "object", "-"},
}


def _rows():
    """(d, k, r, n, one_cell) of every row: 1-8 coordinates, keys of 1 to 62 bits, and 120 samples.

    Of these r, only 62 makes argsort pairs.  Then k = d at (3, 20),
    (10, 9) and (2, 13), whose 26-bit cells make 33-bit pairs, and 200
    samples in one cell at d = k = 8, r = 7, where the sums pass int64.
    """
    for d in (1, 2, 3, 5, 8):
        for r in (1, 3, 8, 9, 17, 62):
            for k in sorted({0, 1, d // 2, d - 1, d}):
                yield d, k, r, 120, False
    yield from ((3, 3, 20, 120, False), (10, 10, 9, 120, False), (2, 2, 13, 120, False), (8, 8, 7, 200, True))


def _label(model) -> str:
    """The route a model took: route, cell sums, sort pairs, key, weight and chi dtype.

    The fields give the route and the dtypes; ``_cell_route`` and the pair
    width ``r |T| + bitlen(n - 1)`` give how the cells were summed and grouped.
    """
    d, k, r, n = model.d, model.k, model.r, model.n

    def pairs(width):
        bits = width + (n - 1).bit_length()
        return "uint32" if bits <= 32 else "int64" if bits <= 63 else "argsort"

    if model.tables is not None:
        sizes = [t for t in range(k + 1) if approx_mc.subset_coefficient(t, d, k, r)]
        cells = {t: approx_mc._cell_route(tuple(range(t)), r, n) for t in sizes}
        route, grouped = "tables", {pairs(r * t) for t in sizes if cells[t] == "sorted"}
    else:
        cells = {}
        route = ("coordinate runs of ranks" if model.order is not None else "coordinate runs of indices" if k < d
                 else "full-cell run" if len(model.runs) == 1 else "cell intersection")
        grouped = {pairs(r * d if route == "full-cell run" else r)}
    parts = (route, "+".join(sorted(set(cells.values()))) or "-", "+".join(sorted(grouped)) or "-",
             model.samples.digit_keys.dtype, "-" if model.tables is None else model.tables.weights.dtype,
             "-" if model.chi is None else model.chi.dtype)
    return " | ".join(map(str, parts))


def modes_agree(samples, k, queries):
    """``(model, model(queries), reconstruction_value(model, queries))`` of the three modes, asserting their identities.

    The generalized model comes first, then linear and sign at a zero entry
    floor, then at the default one.  On +-1 values every model gives the same
    ``h`` bytes and ``eval_generalized`` equals ``eval_sign``; at ``k = d``
    every model gives the same ``h`` bytes, and +0.0 where x's cell is empty.
    """
    models = [WaveletModel(k, "generalized", samples)]  # which never reads the entry floor
    for floor in (0, approx_mc.TABLE_ENTRY_FLOOR):
        with mock.patch.object(approx_mc, "TABLE_ENTRY_FLOOR", floor):
            models += [WaveletModel(k, mode, samples) for mode in ("linear", "sign")]
    out = [(model, model(queries), reconstruction_value(model, queries)) for model in models]
    where = f"d={samples.d} k={k} r={samples.resolution} n={samples.n}"
    h = {hx.tobytes() for _, _, hx in out}
    if models[0].exact:
        assert len(h) == 1, f"modes give different h on +-1 values at {where}"
        assert out[0][1].tobytes() == out[2][1].tobytes() == out[4][1].tobytes(), f"generalized != sign at {where}"
    if k == samples.d:
        keys = approx_mc._cell_keys(queries, samples.resolution)
        empty = ~(samples.digit_keys == keys[:, None]).all(axis=2).any(axis=1)
        assert len(h) == 1, f"modes give different h at k = d at {where}"
        assert out[0][2][empty].tobytes() == bytes(8 * empty.sum()), f"an empty cell's h is not +0.0 at {where}"
    return out


def route_digests() -> dict[str, str]:
    """The digest of every (route, mode) over the grid (``_rows``, four kinds of value each)."""
    digests = defaultdict(hashlib.sha256)
    for d, k, r, n, one_cell in _rows():
        rng = np.random.default_rng((d, k, r))
        base = rng.random((1 if one_cell else n // 3, d))
        base[rng.random(base.shape) < 0.2] = 1.0
        points = base[rng.integers(0, len(base), n)]
        queries = np.concatenate([points[:3], rng.random((2, d)), np.ones((1, d))])
        for values in _KINDS.values():
            for model, y, h in modes_agree(SampleSet(points, values(rng, n), resolution=r), k, queries):
                digests[f"{_label(model)} | {model.mode}"].update(y.tobytes() + h.tobytes())
    return {key: digest.hexdigest() for key, digest in sorted(digests.items())}


def _provenance() -> dict[str, str]:
    """The numpy version and BLAS, and one float dot as ``_numerators`` forms it: its sum order is the BLAS kernel's."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rng = np.random.default_rng(0)
    dot = np.dot(rng.uniform(-1.0, 1.0, 999), rng.integers(-9, 10, 999))
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(), "dot": dot.hex()}


def test_route_digests():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = _provenance()
    assert {name: recorded[name] for name in here} == here, (
        "digests recorded on numpy {numpy} with {blas} (dot {dot}), ".format(**recorded)
        + "run on numpy {numpy} with {blas} (dot {dot}); ".format(**here)
        + f"rewrite them with `python tests/{Path(__file__).name}` once the outputs are checked")
    digests = route_digests()
    labels = [key.split(" | ")[:-1] for key in digests]
    for at, (part, listed) in enumerate(_REACHED.items()):
        reached = {atom for label in labels for atom in label[at].split("+")}
        assert reached == listed, f"the grid reaches {part} {sorted(reached)}, the list names {sorted(listed)}"
    changed = sorted(key for key in digests.keys() | recorded["digests"].keys()
                     if digests.get(key) != recorded["digests"].get(key))
    assert not changed, "(route, mode) digests changed, added or gone:\n" + "\n".join(changed)


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"] if DIGESTS.exists() else {}
    new = route_digests()
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(("added " if key not in old else "removed " if key not in new else "changed ") + key)
    DIGESTS.write_text(json.dumps({**_provenance(), "digests": new}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(new)} (route, mode) digests written to {DIGESTS}")
