"""NRP — paper Algorithm 3 (the complete pipeline).

1. k' = k/2; (X, Y) = ApproxPPR(A, D^-1, P, alpha, k', l1, eps)
2. initialize w-> = d_out (floored at 1/n for dangling nodes), w<- = 1
3. for l2 epochs: update backward weights (Alg. 2), then forward (Alg. 4)
4. final embeddings X_v *= w->_v, Y_v *= w<-_v

``l2 = 0`` disables reweighting, reducing NRP to the ApproxPPR baseline —
the paper's own ablation (Fig. 8d)."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.approxppr import approxppr
from repro.core.reweight import update_backward_weights, update_forward_weights
from repro.graphs.edgelist import LocalGraph, SparkGraph


@dataclass
class NRPResult:
    """Final weighted embeddings plus the pieces they were built from."""

    X: np.ndarray    # forward embeddings, weight-scaled  (n, k/2)
    Y: np.ndarray    # backward embeddings, weight-scaled (n, k/2)
    X0: np.ndarray   # ApproxPPR forward embeddings (unweighted)
    Y0: np.ndarray   # ApproxPPR backward embeddings (unweighted)
    wf: np.ndarray   # learned forward weights
    wb: np.ndarray   # learned backward weights


def nrp(
    g: LocalGraph,
    k: int = 128,
    *,
    alpha: float = 0.15,
    l1: int = 20,
    l2: int = 10,
    eps: float = 0.2,
    lam: float = 10.0,
    q: int | None = None,
    seed: int = 0,
    backend: str = "local",
    spark: SparkSession | None = None,
    sg: SparkGraph | None = None,
    exact_b1: bool = False,
    chunk: int | str = "auto",
) -> NRPResult:
    """Run NRP with the paper's defaults (alpha=0.15, l1=20, l2=10, eps=0.2,
    lam=10). ``backend`` selects where the ApproxPPR phase runs; the
    coordinate-descent sweeps are driver-side by construction (DESIGN §5).
    ``chunk="auto"`` uses the paper's sequential sweep on small graphs and
    the vectorized chunked sweep (same formulas, chunked update order)
    above n = 2000."""
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    if l2 < 0:
        raise ValueError(f"l2 must be >= 0, got {l2}")
    if not lam >= 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    k2 = k // 2
    X0, Y0 = approxppr(
        g, k2, alpha=alpha, l1=l1, eps=eps, q=q, seed=seed,
        backend=backend, spark=spark, sg=sg,
    )
    n = g.n
    if chunk == "auto":
        chunk = 1 if n <= 2000 else 512
    if l2 == 0:
        # the paper (Sec 5.6): "l2 = 0 ... is equivalent to disable our
        # reweighting scheme and only use the traditional PPR" — so the
        # d_out initialization is not applied either
        ones = np.ones(n)
        return NRPResult(X=X0, Y=Y0, X0=X0, Y0=Y0, wf=ones, wb=ones)
    wf = np.maximum(g.d_out.astype(np.float64), 1.0 / n)
    wb = np.ones(n)
    rng = np.random.default_rng(seed + 1)
    for _ in range(l2):
        wb = update_backward_weights(
            X0, Y0, wf, wb, g.d_out, g.d_in, lam=lam, rng=rng,
            exact_b1=exact_b1, chunk=chunk,
        )
        wf = update_forward_weights(
            X0, Y0, wf, wb, g.d_out, g.d_in, lam=lam, rng=rng,
            exact_b1=exact_b1, chunk=chunk,
        )
    return NRPResult(
        X=wf[:, None] * X0, Y=wb[:, None] * Y0, X0=X0, Y0=Y0, wf=wf, wb=wb
    )
