"""The benchmark's workloads: `monoapprox approximate` runs as users run them.

Each workload is a fixed set of `approximate` flags plus a rotation of family
specs.  Replication ``i`` of a run with workload seed ``S`` is one
``cli.cmd_approximate`` call with ``--seed S*REP_STRIDE+i --replications 1`` and
family ``families[i % len(families)]``, so every replication follows the CLI's
own seed scheme ``SeedSequence((seed, 0, stream))``.

``tiny`` overrides shrink the input sizes for the benchmark's own smoke tests;
the measured runs never use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

REP_STRIDE = 100_000

# l1_err.mean averages the first L1_REPS replications, so it depends on the
# seed alone and not on how many replications fit in the timed section.  It is
# a multiple of every rotation length, so each family weighs the same.
L1_REPS = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flags: dict
    families: tuple[str, ...]
    tiny: dict = field(default_factory=dict)

    def config_kwargs(self, seed: int, rep: int, tiny: bool = False) -> dict:
        """ExperimentConfig fields of replication ``rep`` under workload seed ``seed``."""
        kwargs = dict(self.flags, **(self.tiny if tiny else {}))
        kwargs.update(
            subcommand="approximate",
            seed=seed * REP_STRIDE + rep,
            replications=1,
            family=self.families[rep % len(self.families)],
        )
        return kwargs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-sign-d4",
            "criterion-12 shape (k=4, r=7, n capped at 200k): per-query eval_sign is nearly all of a replication",
            dict(algo="mc", d=4, eps=0.5, mode="sign", n_probe=200),
            ("levelset:t=1,b=4,p=0.35", "levelset:t=2,b=4,p=0.35", "boxbslash"),
            tiny=dict(n_cap=2000, n_probe=20),
        ),
        Workload(
            "mc-gen-d2",
            "generalized mode at the formula's own n=726374 (k=2, r=6): value sort plus one prefix sum over n per query",
            dict(algo="mc", d=2, eps=0.5, mode="generalized", n_cap=0, n_probe=100),
            ("step:m=4", "affine"),
            tiny=dict(n_cap=3000, n_probe=10),
        ),
        Workload(
            "mc-linear-d4",
            "linear mode with k<d (k=2, r=4, n=4096): pure-Python coefficient estimation dominates the fit",
            dict(algo="mc", d=4, k=2, r=4, n=4096, mode="linear", n_probe=500),
            ("step:m=4", "levelset:t=2,b=4,p=0.35"),
            tiny=dict(n=128, n_probe=20),
        ),
        Workload(
            "det-grid-d4",
            "deterministic grid (m=32, 923521 lattice points): never enters approx_mc, the control for mc changes",
            dict(algo="det", d=4, m=32, n_probe=20_000),
            ("step:m=4", "levelset:t=2,b=4,p=0.35", "affine"),
            tiny=dict(m=6, n_probe=200),
        ),
    )
}
