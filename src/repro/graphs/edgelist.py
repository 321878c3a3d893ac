"""Edge-list graph representations.

Two views of the same graph:

* :class:`LocalGraph` — numpy arrays on the driver. This is the reference
  ("oracle") representation used by the local backends and by inherently
  driver-side steps (edge splits, walk sampling, coordinate descent).
* :class:`SparkGraph` — a Spark DataFrame of arcs plus a DataFrame helper
  for the transition probabilities. All distributed iterative compute
  (PPR power iterations, Krylov matvecs) runs against this view.

Conventions
-----------
Nodes are integers ``0..n-1``. ``edges`` is the *canonical input edge list*
(each undirected edge stored once with ``u < v``; directed edges stored as
ordered pairs). ``arcs`` is the directed-arc expansion actually walked on:
identical to ``edges`` for directed graphs, both orientations for
undirected ones. Self-loops are dropped and duplicates removed on
construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def canonical_edges(edges: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Dedup an ``(m, 2)`` int edge array, drop self-loops, and (for
    undirected graphs) normalize each edge to ``u < v``."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return e.reshape(0, 2)
    if (e.min() < 0) or (e.max() >= n):
        raise ValueError(f"edge endpoints outside [0, {n})")
    e = e[e[:, 0] != e[:, 1]]
    if not directed:
        e = np.sort(e, axis=1)
    # unique rows via a single composite key (n < 2**31 keeps the product exact)
    key = e[:, 0] * np.int64(n) + e[:, 1]
    _, idx = np.unique(key, return_index=True)
    return e[np.sort(idx)]


@dataclass
class LocalGraph:
    """In-memory graph: canonical edges + directed-arc expansion + caches."""

    edges: np.ndarray  # (m_input, 2) canonical
    n: int
    directed: bool
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_edges(
        cls, edges: np.ndarray, n: int, directed: bool, name: str = ""
    ) -> "LocalGraph":
        return cls(canonical_edges(edges, n, directed), n, directed, name)

    # -- basic views -------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of input edges (undirected counted once, as in the paper)."""
        return int(self.edges.shape[0])

    @property
    def arcs(self) -> np.ndarray:
        """(num_arcs, 2) directed arcs; both orientations when undirected."""
        if "arcs" not in self._cache:
            if self.directed:
                a = self.edges
            else:
                a = np.vstack([self.edges, self.edges[:, ::-1]])
            self._cache["arcs"] = a
        return self._cache["arcs"]

    @property
    def d_out(self) -> np.ndarray:
        if "d_out" not in self._cache:
            self._cache["d_out"] = np.bincount(
                self.arcs[:, 0], minlength=self.n
            ).astype(np.float64)
        return self._cache["d_out"]

    @property
    def d_in(self) -> np.ndarray:
        if "d_in" not in self._cache:
            self._cache["d_in"] = np.bincount(
                self.arcs[:, 1], minlength=self.n
            ).astype(np.float64)
        return self._cache["d_in"]

    def transpose(self) -> "LocalGraph":
        """Graph with every arc reversed (identity for undirected graphs)."""
        if not self.directed:
            return self
        return LocalGraph(
            self.edges[:, ::-1].copy(), self.n, True, name=self.name + "^T"
        )

    # -- linear-algebra helpers (reference backend) ------------------------
    def adjacency(self) -> np.ndarray:
        """Dense adjacency (small graphs only — oracle use)."""
        if self.n > 20_000:
            raise ValueError("dense adjacency limited to n <= 20000")
        A = np.zeros((self.n, self.n))
        a = self.arcs
        A[a[:, 0], a[:, 1]] = 1.0
        return A

    def transition(self) -> np.ndarray:
        """Dense row-stochastic transition matrix; dangling rows are zero."""
        A = self.adjacency()
        d = self.d_out.copy()
        d[d == 0] = 1.0
        return A / d[:, None]

    def _segment_sum(
        self, X: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Per-row sums of X[indices] over CSR segments (reduceat: much
        faster than np.add.at for the m*k-sized gathers here)."""
        out = np.zeros((self.n, X.shape[1]))
        deg = np.diff(indptr)
        rows = deg > 0
        if not rows.any():
            return out
        starts = indptr[:-1][rows]
        k = X.shape[1]
        # block columns so the m x k gather stays within ~400 MB
        blk = max(1, int(5e7 // max(indices.size, 1)))
        for lo in range(0, k, blk):
            contrib = X[indices, lo : lo + blk]
            out[rows, lo : lo + blk] = np.add.reduceat(contrib, starts, axis=0)
        return out

    def spmv(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` without materializing A:
        ``(A X)[u] = sum over arcs (u, v) of X[v]``."""
        X = np.atleast_2d(X.T).T  # ensure 2-D (n, k)
        indptr, indices = self.csr()
        return self._segment_sum(X, indptr, indices)

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        """``A.T @ X``."""
        X = np.atleast_2d(X.T).T
        indptr, indices = self.csr_t()
        return self._segment_sum(X, indptr, indices)

    def pmv(self, X: np.ndarray) -> np.ndarray:
        """``P @ X`` with P the transition matrix (dangling rows -> 0):
        the uniform arc weight 1/d_out(u) factors out of each row sum."""
        d = self.d_out.copy()
        d[d == 0] = 1.0
        return self.spmv(X) / d[:, None]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) adjacency in CSR form for walk sampling."""
        if "csr" not in self._cache:
            a = self.arcs
            order = np.argsort(a[:, 0], kind="stable")
            indices = a[order, 1]
            counts = np.bincount(a[:, 0], minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._cache["csr"] = (indptr.astype(np.int64), indices)
        return self._cache["csr"]

    def csr_t(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the transposed adjacency (arcs by dst)."""
        if "csr_t" not in self._cache:
            a = self.arcs
            order = np.argsort(a[:, 1], kind="stable")
            indices = a[order, 0]
            counts = np.bincount(a[:, 1], minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._cache["csr_t"] = (indptr, indices)
        return self._cache["csr_t"]

    def edge_key_set(self) -> set:
        """Set of arc keys (u*n+v) for O(1) membership tests."""
        if "keys" not in self._cache:
            a = self.arcs
            self._cache["keys"] = set(
                (a[:, 0] * np.int64(self.n) + a[:, 1]).tolist()
            )
        return self._cache["keys"]


class SparkGraph:
    """Spark DataFrame view of a :class:`LocalGraph`.

    ``arcs`` is a cached DataFrame ``(src: long, dst: long)``;
    :meth:`transition_arcs` returns a pure DataFrame result, checkable
    against the DuckDB oracle.
    """

    def __init__(self, spark: SparkSession, local: LocalGraph, num_partitions: int | None = None):
        self.spark = spark
        self.local = local
        self.n = local.n
        self.directed = local.directed
        a = local.arcs
        pdf = pd.DataFrame({"src": a[:, 0], "dst": a[:, 1]})
        df = spark.createDataFrame(pdf)
        if num_partitions:
            df = df.repartition(num_partitions, "dst")
        self.arcs: DataFrame = df.cache()
        self.arcs.count()  # materialize

    def transition_arcs(self) -> DataFrame:
        """(src, dst, p) with p = 1/d_out(src): the sparse transition matrix."""
        deg = self.arcs.groupBy(F.col("src").alias("u")).agg(
            F.count("*").alias("d")
        )
        return (
            self.arcs.join(deg, self.arcs.src == deg.u)
            .select("src", "dst", (F.lit(1.0) / F.col("d")).alias("p"))
        )

    def unpersist(self) -> None:
        self.arcs.unpersist()
