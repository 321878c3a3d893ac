"""Graph substrate: canonicalization, degrees, transition, matvec oracles."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs.edgelist import LocalGraph, SparkGraph, canonical_edges
from repro.graphs.generators import (
    directed_cycle,
    erdos_renyi,
    example_graph,
    ring,
    star,
)
from repro.oracle import assert_equivalent


# ---------------------------------------------------------------- canonical
def test_canonical_drops_self_loops():
    e = canonical_edges(np.array([[0, 0], [1, 2], [3, 3]]), 4, directed=True)
    assert e.tolist() == [[1, 2]]


def test_canonical_dedups_directed():
    e = canonical_edges(np.array([[1, 2], [1, 2], [2, 1]]), 3, directed=True)
    assert sorted(e.tolist()) == [[1, 2], [2, 1]]


def test_canonical_dedups_undirected_orientation():
    e = canonical_edges(np.array([[2, 1], [1, 2]]), 3, directed=False)
    assert e.tolist() == [[1, 2]]


def test_canonical_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonical_edges(np.array([[0, 5]]), 3, directed=True)


def test_canonical_empty():
    e = canonical_edges(np.empty((0, 2)), 3, directed=False)
    assert e.shape == (0, 2)


# ---------------------------------------------------------------- LocalGraph
def test_example_graph_degree_sequence():
    # Example 2 of the paper fixes the degree sequence via w-> init.
    g = example_graph()
    assert g.d_out.tolist() == [3, 3, 4, 3, 4, 2, 2, 2, 1]
    assert g.d_in.tolist() == [3, 3, 4, 3, 4, 2, 2, 2, 1]
    assert g.m == 12 and g.arcs.shape == (24, 2)


def test_undirected_arcs_are_symmetric():
    g = ring(6)
    keys = set(map(tuple, g.arcs.tolist()))
    assert all((b, a) in keys for a, b in keys)


def test_directed_graph_arcs_equal_edges():
    g = directed_cycle(5)
    assert np.array_equal(g.arcs, g.edges)
    assert g.d_out.tolist() == [1] * 5
    assert g.d_in.tolist() == [1] * 5


def test_transpose_swaps_degrees():
    g = LocalGraph.from_edges(np.array([[0, 1], [0, 2], [1, 2]]), 3, True)
    gt = g.transpose()
    assert np.array_equal(gt.d_out, g.d_in)
    assert np.array_equal(gt.d_in, g.d_out)


def test_transpose_of_undirected_is_identity():
    g = ring(5)
    assert g.transpose() is g


def test_adjacency_matches_arcs():
    g = example_graph()
    A = g.adjacency()
    assert A.sum() == 24
    assert np.array_equal(A, A.T)


def test_transition_rows_sum_to_one():
    g = example_graph()
    P = g.transition()
    np.testing.assert_allclose(P.sum(axis=1), np.ones(9))


def test_transition_dangling_row_is_zero():
    g = LocalGraph.from_edges(np.array([[0, 1]]), 3, True)
    P = g.transition()
    assert P[1].sum() == 0 and P[2].sum() == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spmv_matches_dense(seed):
    g = erdos_renyi(40, 120, seed=seed)
    X = np.random.default_rng(seed).standard_normal((40, 5))
    np.testing.assert_allclose(g.spmv(X), g.adjacency() @ X, atol=1e-12)
    np.testing.assert_allclose(g.spmv_t(X), g.adjacency().T @ X, atol=1e-12)
    np.testing.assert_allclose(g.pmv(X), g.transition() @ X, atol=1e-12)


def test_csr_structure():
    g = star(5)
    indptr, indices = g.csr()
    assert indptr[-1] == g.arcs.shape[0]
    assert sorted(indices[indptr[0]:indptr[1]].tolist()) == [1, 2, 3, 4]


def test_edge_key_set():
    g = directed_cycle(3)
    keys = g.edge_key_set()
    assert (0 * 3 + 1) in keys and (1 * 3 + 0) not in keys


def test_m_counts_input_edges_once():
    assert ring(10).m == 10
    assert directed_cycle(10).m == 10


# ---------------------------------------------------------------- SparkGraph
def _arc_pdf(g):
    return pd.DataFrame({"src": g.arcs[:, 0], "dst": g.arcs[:, 1]})


def test_spark_transition_arcs_oracle(spark):
    g = example_graph()
    sg = SparkGraph(spark, g)
    assert_equivalent(
        sg.transition_arcs(),
        """
        SELECT a.src AS src, a.dst AS dst, 1.0 / d.d AS p
        FROM arcs a JOIN (
          SELECT src, COUNT(*) AS d FROM arcs GROUP BY src
        ) d USING (src)
        """,
        arcs=_arc_pdf(g),
    )
    sg.unpersist()


_OPERATOR_GRAPHS = {
    # node 3 is a dangling sink, nodes 5-6 are isolated
    "sinks_isolated": lambda: LocalGraph.from_edges(
        np.array([[0, 1], [1, 3], [2, 3], [4, 0], [0, 2]]), 7, True
    ),
    # fewer rows than blocks: some blocks are empty
    "tiny": lambda: LocalGraph.from_edges(np.array([[0, 1]]), 2, False),
    "no_edges": lambda: LocalGraph.from_edges(np.empty((0, 2)), 4, True),
    "er_directed": lambda: erdos_renyi(60, 300, directed=True, seed=7),
}


@pytest.mark.parametrize("name", list(_OPERATOR_GRAPHS))
def test_spark_products_equal_local_bytes(spark, name):
    g = _OPERATOR_GRAPHS[name]()
    X = np.random.default_rng(0).standard_normal((g.n, 3))
    sg = SparkGraph(spark, g)
    for op in ("spmv", "spmv_t", "pmv"):
        assert np.array_equal(getattr(sg, op)(X), getattr(g, op)(X)), op
    sg.unpersist()
