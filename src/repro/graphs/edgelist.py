"""Edge-list graph representations.

Two views of the same graph:

* :class:`LocalGraph` — numpy arrays on the driver. This is the reference
  ("oracle") representation used by the local backends and by inherently
  driver-side steps (edge splits, walk sampling, coordinate descent).
* :class:`SparkGraph` — the same sparse products (``A X``, ``A^T X``,
  ``P X``) computed by Spark: the CSR of A and of A^T is cut into row
  blocks held in cached DataFrames, X is broadcast, and each block's rows
  are summed on an executor. X is O(n k') and fits in one process, so
  only the O(m) arcs are distributed. It also offers the arcs as a
  DataFrame, with the transition probabilities as a DataFrame helper.

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
from functools import cached_property

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


def _transition_rows(AX: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """``P @ X`` from ``A @ X``: the uniform arc weight 1/d_out(u) factors
    out of row u's sum; dangling rows are empty sums and stay zero."""
    d = d_out.copy()
    d[d == 0] = 1.0
    return AX / d[:, None]


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
        """``P @ X`` with P the transition matrix (dangling rows -> 0)."""
        return _transition_rows(self.spmv(X), self.d_out)

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
    """Spark view of a :class:`LocalGraph`.

    :meth:`spmv`, :meth:`spmv_t` and :meth:`pmv` are the distributed sparse
    products: same contract and same bytes as the :class:`LocalGraph`
    methods, so BKSVD and the PPR loop run on either unchanged. ``arcs`` is
    a cached DataFrame ``(src: long, dst: long)``; :meth:`transition_arcs`
    returns a pure DataFrame result, checkable against the DuckDB oracle.
    """

    def __init__(self, spark: SparkSession, local: LocalGraph):
        self.spark = spark
        self.local = local
        self.n = local.n
        self.directed = local.directed
        # built and materialized here, so that the first product costs what
        # every later one does
        self._blocks = {key: self._row_blocks(key) for key in ("csr", "csr_t")}

    @cached_property
    def arcs(self) -> DataFrame:
        """The arcs as a cached DataFrame, built on first use (the products
        do not read it)."""
        a = self.local.arcs
        pdf = pd.DataFrame({"src": a[:, 0], "dst": a[:, 1]})
        # the schema is given so that a graph with no arcs works too
        return self.spark.createDataFrame(pdf, "src long, dst long").cache()

    def _row_blocks(self, key: str) -> DataFrame:
        """The CSR ``key`` ("csr" of A or "csr_t" of A^T) cut into
        ``defaultParallelism`` contiguous row blocks of about equal arc
        counts, one DataFrame row (and partition) per block: ``lo``, ``hi``
        and the block's ``indptr`` / ``indices`` as raw int64 bytes; cached
        and materialized."""
        indptr, indices = getattr(self.local, key)()
        nb = self.spark.sparkContext.defaultParallelism
        cuts = np.searchsorted(indptr, np.linspace(0, indices.size, nb + 1))
        cuts[0], cuts[-1] = 0, self.n
        lo, hi = cuts[:-1], cuts[1:]
        pdf = pd.DataFrame({
            "lo": lo,
            "hi": hi,
            "indptr": [(indptr[a:b + 1] - indptr[a]).tobytes()
                       for a, b in zip(lo, hi)],
            "indices": [indices[indptr[a]:indptr[b]].tobytes()
                        for a, b in zip(lo, hi)],
        })
        df = self.spark.createDataFrame(
            pdf, "lo long, hi long, indptr binary, indices binary"
        ).cache()
        df.count()  # materialize
        return df

    def _product(self, X: np.ndarray, key: str) -> np.ndarray:
        """Per-row sums of X over the CSR ``key``: broadcast X, sum each row
        block on an executor, collect the blocks into an (n, k) array."""
        X = np.atleast_2d(X.T).T
        k = X.shape[1]
        bX = self.spark.sparkContext.broadcast(X)

        def block_sums(batches):
            # LocalGraph._segment_sum's reduceat, so the sums are the same
            # bytes; written out here because executors need not be able
            # to import repro
            X = bX.value
            for pdf in batches:
                for lo, hi, ptr, idx in pdf.itertuples(index=False):
                    indptr = np.frombuffer(ptr, dtype=np.int64)
                    indices = np.frombuffer(idx, dtype=np.int64)
                    out = np.zeros((hi - lo, k))
                    rows = np.diff(indptr) > 0
                    if rows.any():
                        out[rows] = np.add.reduceat(
                            X[indices], indptr[:-1][rows], axis=0
                        )
                    yield pd.DataFrame(
                        {"lo": [lo], "hi": [hi], "out": [out.tobytes()]}
                    )

        try:
            parts = self._blocks[key].mapInPandas(
                block_sums, "lo long, hi long, out binary"
            ).collect()
        finally:
            bX.destroy()
        out = np.zeros((self.n, k))
        for lo, hi, buf in parts:
            out[lo:hi] = np.frombuffer(buf).reshape(hi - lo, k)
        return out

    def spmv(self, X: np.ndarray) -> np.ndarray:
        """``A @ X``."""
        return self._product(X, "csr")

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        """``A.T @ X``."""
        return self._product(X, "csr_t")

    def pmv(self, X: np.ndarray) -> np.ndarray:
        """``P @ X`` with P the transition matrix (dangling rows -> 0)."""
        return _transition_rows(self.spmv(X), self.local.d_out)

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
        if "arcs" in self.__dict__:
            self.arcs.unpersist()
        for df in self._blocks.values():
            df.unpersist()
