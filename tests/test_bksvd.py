"""BKSVD: spectral-norm guarantee and backend parity."""
import numpy as np
import pytest

from repro.graphs.edgelist import SparkGraph
from repro.graphs.generators import dcsbm, erdos_renyi, example_graph
from repro.linalg.bksvd import bksvd_local, bksvd_spark, default_q


def _dense_mv(A):
    return (lambda x: A @ x), (lambda x: A.T @ x)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [2, 5])
def test_bksvd_local_spectral_bound(seed, k):
    g = erdos_renyi(60, 240, seed=seed)
    A = g.adjacency()
    U, s, V = bksvd_local(*_dense_mv(A), 60, k, eps=0.2, seed=seed)
    exact = np.linalg.svd(A, compute_uv=False)
    # Theorem: ||A - U S V^T||_2 <= (1 + eps) sigma_{k+1}
    err = np.linalg.norm(A - U @ np.diag(s) @ V.T, 2)
    assert err <= (1.0 + 0.25) * exact[k] + 1e-8


def test_bksvd_singular_values_close_to_exact():
    g = dcsbm(80, 600, 4, seed=2)[0]
    A = g.adjacency()
    _, s, _ = bksvd_local(*_dense_mv(A), 80, 4, eps=0.1, q=8, seed=0)
    exact = np.linalg.svd(A, compute_uv=False)[:4]
    np.testing.assert_allclose(s, exact, rtol=0.05)


def test_bksvd_orthonormal_factors():
    g = erdos_renyi(50, 200, seed=3)
    A = g.adjacency()
    U, s, V = bksvd_local(*_dense_mv(A), 50, 3, seed=1)
    np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-8)
    np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-8)
    assert np.all(np.diff(s) <= 1e-9)  # descending


def test_bksvd_directed_asymmetric():
    g = erdos_renyi(40, 160, directed=True, seed=4)
    A = g.adjacency()
    U, s, V = bksvd_local(*_dense_mv(A), 40, 4, q=8, seed=0)
    exact = np.linalg.svd(A, compute_uv=False)
    err = np.linalg.norm(A - U @ np.diag(s) @ V.T, 2)
    assert err <= 1.3 * exact[4] + 1e-8


def test_default_q_clamped():
    assert 1 <= default_q(10, 0.2, 4) <= 8
    assert default_q(10**6, 0.2, 16) <= 8
    assert default_q(4, 0.2, 4) >= 1


def test_bksvd_spark_matches_local(spark):
    # the Spark products sum in LocalGraph's order, so the factors are the
    # same bytes, not merely the same up to sign
    g = example_graph()
    sg = SparkGraph(spark, g)
    local = bksvd_local(g.spmv, g.spmv_t, g.n, 2, q=6, seed=0)
    for a, b in zip(bksvd_spark(sg, 2, q=6, seed=0), local):
        np.testing.assert_array_equal(a, b)
    sg.unpersist()


def test_bksvd_spark_reconstruction(spark):
    g = erdos_renyi(30, 120, directed=True, seed=5)
    sg = SparkGraph(spark, g)
    A = g.adjacency()
    U, s, V = bksvd_spark(sg, 4, q=6, seed=2)
    exact = np.linalg.svd(A, compute_uv=False)
    err = np.linalg.norm(A - U @ np.diag(s) @ V.T, 2)
    assert err <= 1.3 * exact[4] + 1e-8
    sg.unpersist()


def test_bksvd_pads_past_rank():
    # rank 2 < k = 4: the missing directions are zero columns, so the
    # factors keep the (n, k) contract
    A = np.zeros((6, 6))
    A[0, 1] = A[2, 3] = 1.0
    U, s, V = bksvd_local(*_dense_mv(A), 6, 4, q=2, seed=0)
    assert U.shape == V.shape == (6, 4) and s.shape == (4,)
    np.testing.assert_allclose(s, [1.0, 1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(U @ np.diag(s) @ V.T, A, atol=1e-12)
