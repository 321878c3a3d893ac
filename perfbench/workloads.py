"""The benchmark's workloads. perfbench/README.md says why each exists.

Every workload runs NRP with the paper's defaults (alpha=0.15, l1=20,
l2=10, eps=0.2), except l1=5 on er-spark-2k, and lam=1, the value
``repro.baselines.registry`` uses at lite scale. The graph is drawn from
``--seed``; so are the 30 % link split and the sampled reconstruction
candidates.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.graphs import generators

NRP_PARAMS = dict(alpha=0.15, l1=20, l2=10, eps=0.2, lam=1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str            # "local" or "spark"
    k: int
    graph: tuple            # (generator name, args, kwargs)
    recon_sample: int | None  # candidate pairs drawn; None = all pairs
    auc_floor: float        # lp_auc below this fails the run
    min_reps: int           # timed embed+score repetitions, at least
    l1: int = NRP_PARAMS["l1"]

    @property
    def nrp_params(self) -> dict:
        return dict(NRP_PARAMS, l1=self.l1)

    def make_graph(self, seed: int):
        # looked up at call time, so a traced run sees the wrapped generator
        fn, args, kw = self.graph
        out = getattr(generators, fn)(*args, seed=seed, **kw)
        return out[0] if isinstance(out, tuple) else out


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            # local hot path: BKSVD and the PPR supersteps gather over
            # 812K arcs; chunk=512 reweight sweep; sampled scoring
            name="sbm-dir-40k",
            backend="local",
            k=32,
            # the twitter_lite spec of repro.experiments.datasets
            graph=("dcsbm", (40_000, 1_160_000, 25),
                   dict(directed=True, p_in=0.5, closure=0.25)),
            recon_sample=1_000_000,
            auc_floor=0.78,
            min_reps=2,
        ),
        Workload(
            # n <= 2000 selects the sequential chunk=1 reweight sweep; k=128
            # gives a 384-wide Krylov block; all-pairs numpy scoring
            name="sbm-dir-2k-k128",
            backend="local",
            k=128,
            graph=("dcsbm", (2_000, 80_000, 20),
                   dict(directed=True, p_in=0.45, closure=0.25)),
            recon_sample=None,
            auc_floor=0.76,
            min_reps=3,
        ),
        Workload(
            # the only workload on the Spark backend: SparkGraph,
            # bksvd_spark, LongMatrix supersteps and topk_pairs_spark
            name="er-spark-2k",
            backend="spark",
            k=16,
            graph=("erdos_renyi", (2_000, 20_000), dict(directed=False)),
            recon_sample=None,
            auc_floor=0.44,
            min_reps=1,
            # each Spark superstep costs ~1.5 s of task overhead; 4 instead
            # of 19 keep a run within the benchmark's time budget
            l1=5,
        ),
    ]
}
