"""Randomized block-Krylov SVD (BKSVD, Musco & Musco NIPS'15).

Used by ApproxPPR (paper Algorithm 1, line 1) to factorize the adjacency
matrix A ~= U S V^T with a (1+eps) spectral-norm guarantee. The matrix is
touched only through the products ``A X`` and ``A^T X``, so one algorithm,
:func:`bksvd_local`, runs on any backend that computes them:

* :func:`bksvd_local`  — given the two product callables (numpy
  ``LocalGraph.spmv``/``spmv_t``, or dense ones in tests);
* :func:`bksvd_spark`  — the same call on a :class:`SparkGraph`'s
  distributed products; all small (k x k) algebra stays in numpy.

Algorithm (square A, n x n): draw Gaussian Omega (n x b); build the Krylov
block K = [A Om, (A A^T) A Om, ..., (A A^T)^q A Om]; orthonormalize to Q;
Rayleigh-Ritz on A A^T restricted to span(Q) gives U; a final small SVD of
U^T A gives (S, V) and rotates U. When A has rank below k, the directions
it lacks come back as zero columns with zero singular values, so the
factors are always (n, k).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graphs.edgelist import SparkGraph


def default_q(n: int, eps: float, k: int) -> int:
    """Paper: q = Theta(log n / sqrt(eps)); clamp so the Krylov block stays
    thin relative to n."""
    q = int(np.ceil(np.log(max(n, 2)) / np.sqrt(eps) / 4.0))
    q = int(np.clip(q, 2, 8))
    while k * (q + 1) > max(n, k) and q > 0:
        q -= 1
    return max(q, 1)


def _whiten(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalization weights from a Gram matrix: returns (W, keep_mask)
    with Q = K @ W orthonormal (rank-revealing; tiny directions dropped)."""
    lam, E = np.linalg.eigh((gram + gram.T) / 2.0)
    tol = max(lam.max(), 0.0) * 1e-10 + 1e-30
    keep = lam > tol
    W = E[:, keep] / np.sqrt(lam[keep])
    return W, keep


def _ritz(QtAAtQ: np.ndarray, k: int) -> np.ndarray:
    """Top-k Ritz vectors of a small symmetric matrix (columns)."""
    lam, E = np.linalg.eigh((QtAAtQ + QtAAtQ.T) / 2.0)
    return E[:, ::-1][:, :k]


def _final_svd(RtR: np.ndarray, k: int):
    """From R = A^T U (n x k): SVD of B = U^T A via the small Gram RtR.

    Returns (W2, sig, Vmul) with final U = U @ W2, V = R @ Vmul.
    """
    lam, W2 = np.linalg.eigh((RtR + RtR.T) / 2.0)
    lam, W2 = lam[::-1][:k], W2[:, ::-1][:, :k]
    sig = np.sqrt(np.clip(lam, 0.0, None))
    inv = np.where(sig > 1e-12, 1.0 / np.maximum(sig, 1e-300), 0.0)
    return W2, sig, W2 * inv[None, :]


def bksvd_local(
    mv: Callable[[np.ndarray], np.ndarray],
    rmv: Callable[[np.ndarray], np.ndarray],
    n: int,
    k: int,
    *,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BKSVD. ``mv(X) = A @ X``, ``rmv(X) = A.T @ X``; returns (U, sig, V)
    with U, V of shape (n, k), sig descending (zero-padded past rank A)."""
    q = default_q(n, eps, k) if q is None else q
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, k))

    def _normalize(b: np.ndarray) -> np.ndarray:
        # scale per block so the Krylov Gram stays well-conditioned across
        # q powers of A A^T (the span is unchanged)
        s = np.linalg.norm(b)
        return b / s if s > 0 else b

    blocks = [_normalize(mv(omega))]
    for _ in range(q):
        blocks.append(_normalize(mv(rmv(blocks[-1]))))
    K = np.hstack(blocks)
    W, _ = _whiten(K.T @ K)
    Q = K @ W
    T = rmv(Q)  # A^T Q
    Wr = _ritz(T.T @ T, k)
    U = Q @ Wr
    R = rmv(U)  # A^T U
    W2, sig, Vmul = _final_svd(R.T @ R, k)
    # whitening drops the directions a rank-deficient A lacks: zero-pad
    pad = [(0, 0), (0, k - sig.size)]
    return np.pad(U @ W2, pad), np.pad(sig, pad[1]), np.pad(R @ Vmul, pad)


def bksvd_spark(
    sg: SparkGraph,
    k: int,
    *,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bksvd_local` on the distributed products of ``sg`` (A[u, v] = 1
    iff arc (u, v) exists); the factors are the same bytes as locally."""
    return bksvd_local(sg.spmv, sg.spmv_t, sg.n, k, eps=eps, q=q, seed=seed)

