"""ApproxPPR — paper Algorithm 1.

Factorizes the truncated PPR matrix Pi' (Eq. 3) without materializing it:

1. ``[U, S, V] = BKSVD(A, k', eps)``                        (line 1)
2. ``X_1 = D^-1 U sqrt(S)``, ``Y = V sqrt(S)``              (line 2)
3. ``X_i = (1-alpha) P X_{i-1} + X_1`` for i = 2..l1        (lines 3-4)
4. ``X = alpha (1-alpha) X_{l1}``                           (line 5)

so that ``X Y^T ~= Pi'`` within the Theorem 1 bound. The algorithm is
written once; the backends differ only in who computes the sparse products
``A X``, ``A^T X`` and ``P X``: ``local`` (numpy, :class:`LocalGraph`) or
``spark`` (broadcast X over distributed CSR row blocks,
:class:`SparkGraph`). Both compute the same sums in the same order, so
they return the same bytes. X is collected either way: the embedding is
the output artifact and fits in one process by construction (O(n k') is
the paper's own space budget for the result).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.edgelist import LocalGraph, SparkGraph
from repro.linalg.bksvd import bksvd_local, bksvd_spark


def _propagate(
    g: LocalGraph,
    pmv: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    sig: np.ndarray,
    V: np.ndarray,
    alpha: float,
    l1: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lines 2-5 from the BKSVD factors; ``pmv(X) = P @ X``. Line 2 zeroes
    the rows of dangling nodes."""
    root = np.sqrt(np.clip(sig, 0.0, None))
    d = g.d_out
    dinv = np.where(d > 0, 1.0 / np.maximum(d, 1.0), 0.0)
    X1 = dinv[:, None] * U * root[None, :]
    Y = V * root[None, :]
    X = X1.copy()
    for _ in range(2, l1 + 1):
        X = (1.0 - alpha) * pmv(X) + X1
    return alpha * (1.0 - alpha) * X, Y


def approxppr_local(
    g: LocalGraph,
    k2: int,
    *,
    alpha: float = 0.15,
    l1: int = 20,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference backend: numpy products over the CSR arrays."""
    U, sig, V = bksvd_local(g.spmv, g.spmv_t, g.n, k2, eps=eps, q=q, seed=seed)
    return _propagate(g, g.pmv, U, sig, V, alpha, l1)


def approxppr_spark(
    spark: SparkSession,
    g: LocalGraph,
    k2: int,
    *,
    alpha: float = 0.15,
    l1: int = 20,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
    sg: SparkGraph | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distributed backend: the same algorithm on ``sg``'s products (a
    :class:`SparkGraph` of ``g``, built and freed here when not given)."""
    own_sg = sg is None
    sg = sg or SparkGraph(spark, g)
    try:
        U, sig, V = bksvd_spark(sg, k2, eps=eps, q=q, seed=seed)
        return _propagate(g, sg.pmv, U, sig, V, alpha, l1)
    finally:
        if own_sg:
            sg.unpersist()


def approxppr(
    g: LocalGraph,
    k2: int,
    *,
    alpha: float = 0.15,
    l1: int = 20,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
    backend: str = "local",
    spark: SparkSession | None = None,
    sg: SparkGraph | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 front door. ``backend`` in {"local", "spark"}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if l1 < 1:
        raise ValueError(f"l1 must be >= 1, got {l1}")
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if backend == "local":
        return approxppr_local(
            g, k2, alpha=alpha, l1=l1, eps=eps, q=q, seed=seed
        )
    if backend == "spark":
        if spark is None:
            raise ValueError("spark backend requires a SparkSession")
        return approxppr_spark(
            spark, g, k2, alpha=alpha, l1=l1, eps=eps, q=q, seed=seed, sg=sg
        )
    raise ValueError(f"unknown backend {backend!r}")
