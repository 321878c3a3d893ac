"""NRP end-to-end (Algorithm 3): the headline qualitative claims."""
import numpy as np
import pytest

from repro.core.nrp import nrp
from repro.core.approxppr import approxppr
from repro.graphs.edgelist import LocalGraph
from repro.graphs.generators import dcsbm, erdos_renyi, example_graph


def test_shapes_and_weight_scaling():
    g = dcsbm(40, 200, 2, seed=0)[0]
    res = nrp(g, k=8, l2=3, seed=0)
    assert res.X.shape == (40, 4) and res.Y.shape == (40, 4)
    np.testing.assert_allclose(res.X, res.wf[:, None] * res.X0)
    np.testing.assert_allclose(res.Y, res.wb[:, None] * res.Y0)


def test_l2_zero_is_plain_approxppr():
    # paper Sec 5.6: l2 = 0 disables reweighting entirely
    g = dcsbm(30, 150, 2, seed=1)[0]
    res = nrp(g, k=8, l2=0, seed=1)
    X0, Y0 = approxppr(g, 4, seed=1)
    np.testing.assert_allclose(res.X, X0)
    np.testing.assert_allclose(res.Y, Y0)
    np.testing.assert_allclose(res.wb, np.ones(30))
    np.testing.assert_allclose(res.wf, np.ones(30))


def test_reweighting_fixes_motivating_example():
    """THE paper claim (Section 1 + Fig. 1): vanilla PPR ranks (v9,v7) above
    (v2,v4); NRP's reweighting must reverse that ordering."""
    g = example_graph()
    # lam=0 as in the paper's own Example 2; k'=6 so the rank-6 PPR
    # approximation exhibits the deficiency clearly
    res = nrp(g, k=12, l1=20, l2=10, lam=0.0, q=8, seed=0)
    ppr_s24 = res.X0[1] @ res.Y0[3]
    ppr_s97 = res.X0[8] @ res.Y0[6]
    assert ppr_s97 > ppr_s24  # vanilla PPR deficiency present...
    nrp_s24 = res.X[1] @ res.Y[3]
    nrp_s97 = res.X[8] @ res.Y[6]
    assert nrp_s24 > nrp_s97  # ...and fixed by node reweighting


def test_weights_bounded_below():
    g = erdos_renyi(50, 150, seed=2)
    res = nrp(g, k=8, l2=5, seed=2)
    assert np.all(res.wf >= 1 / 50 - 1e-12)
    assert np.all(res.wb >= 1 / 50 - 1e-12)


def test_deterministic():
    g = dcsbm(30, 150, 3, seed=3)[0]
    r1 = nrp(g, k=8, l2=4, seed=5)
    r2 = nrp(g, k=8, l2=4, seed=5)
    np.testing.assert_array_equal(r1.X, r2.X)
    np.testing.assert_array_equal(r1.Y, r2.Y)


def test_rejects_odd_k():
    g = example_graph()
    with pytest.raises(ValueError):
        nrp(g, k=7)
    with pytest.raises(ValueError):
        nrp(g, k=0)


def test_directed_graph_works():
    g = erdos_renyi(40, 200, directed=True, seed=4)
    res = nrp(g, k=8, l2=3, seed=4)
    S = res.X @ res.Y.T
    assert not np.allclose(S, S.T)


def test_spark_backend_end_to_end(spark):
    # the Spark products are the local ones, byte for byte, so NRP returns
    # the same bytes on both backends
    g = dcsbm(30, 150, 2, seed=6)[0]
    rl = nrp(g, k=8, l1=8, l2=2, q=6, seed=1, backend="local")
    rs = nrp(g, k=8, l1=8, l2=2, q=6, seed=1, backend="spark", spark=spark)
    for field in ("X", "Y", "wf", "wb"):
        np.testing.assert_array_equal(getattr(rs, field), getattr(rl, field))


def _degenerate(name):
    e = {
        "no_edges": (np.empty((0, 2)), 5, True),
        "triangle": (np.array([[0, 1], [1, 2], [2, 0]]), 3, False),
        "directed_star": (np.array([[0, 1], [0, 2], [0, 3], [0, 4]]), 5, True),
        "path_isolated": (np.array([[0, 1], [1, 2]]), 6, False),
    }[name]
    return LocalGraph.from_edges(*e, name=name)


@pytest.mark.parametrize(
    "name", ["no_edges", "triangle", "directed_star", "path_isolated"]
)
def test_degenerate_graphs_keep_output_contract(spark, name):
    # k' = 4 exceeds the rank of A on each of these graphs; BKSVD keeps
    # fewer directions, and the output must still be (n, k/2) on both
    # backends, finite, and the same bytes
    g = _degenerate(name)
    rl = nrp(g, k=8, l1=3, l2=2, seed=0)
    rs = nrp(g, k=8, l1=3, l2=2, seed=0, backend="spark", spark=spark)
    for r in (rl, rs):
        assert r.X.shape == r.Y.shape == (g.n, 4)
        assert np.isfinite(r.X).all() and np.isfinite(r.Y).all()
    np.testing.assert_array_equal(rs.X, rl.X)
    np.testing.assert_array_equal(rs.Y, rl.Y)


@pytest.mark.parametrize("fn,kw", [
    ("approxppr", dict(alpha=0.0)),
    ("approxppr", dict(alpha=1.0)),
    ("approxppr", dict(l1=0)),
    ("approxppr", dict(eps=0.0)),
    ("nrp", dict(alpha=1.5)),
    ("nrp", dict(l1=0)),
    ("nrp", dict(l2=-1)),
    ("nrp", dict(eps=0.0)),
    ("nrp", dict(lam=-1.0)),
])
def test_rejects_out_of_range_parameters(fn, kw):
    with pytest.raises(ValueError):
        {"approxppr": approxppr, "nrp": nrp}[fn](example_graph(), 4, **kw)


def test_hub_gets_larger_forward_weight():
    # a hub's forward weight should exceed a leaf's after calibration
    # (lam=0 as in the paper's Example 2 — at n=9 any sizeable lam
    # flattens all weights to the floor)
    g = example_graph()
    res = nrp(g, k=12, l2=10, lam=0.0, q=8, seed=0)
    assert res.wf[2] > res.wf[8]  # v3 (deg 4) vs v9 (deg 1)
