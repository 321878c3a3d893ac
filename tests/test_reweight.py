"""Node reweighting (Algorithms 2 & 4): fast aggregates vs the definitional
Eq. (7)/(23) oracle, strict updates vs the objective's exact coordinate
minimizer, incremental-rho correctness, objective descent, and the Example 2
update."""
import numpy as np
import pytest

from repro.core.approxppr import approxppr
from repro.core.reweight import (
    aggregates,
    naive_terms,
    objective,
    update_backward_weights,
    update_forward_weights,
)
from repro.graphs.generators import dcsbm, example_graph


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(11)
    n, k2 = 25, 4
    X = rng.standard_normal((n, k2)) * 0.3
    Y = rng.standard_normal((n, k2)) * 0.3
    wf = rng.random(n) * 3 + 0.2
    wb = rng.random(n) * 2 + 0.1
    d_out = rng.integers(1, 10, n).astype(float)
    d_in = rng.integers(1, 10, n).astype(float)
    return X, Y, wf, wb, d_out, d_in


class OneNodeRng:
    """Stand-in rng whose sweep order visits a single node."""

    def __init__(self, v):
        self.v = v

    def permutation(self, n):
        return np.array([self.v])


# ------------------------------------------------------------ fast == naive
@pytest.mark.parametrize("vstar", [0, 7, 24])
def test_backward_terms_fast_vs_naive(setup, vstar):
    X, Y, wf, wb, d_out, d_in = setup
    n, k2 = X.shape
    nv = naive_terms(X, Y, wf, wb, d_out, d_in, vstar)
    ag = aggregates(X, Y, wf, wb, d_out)
    Yv, Xv = Y[vstar], X[vstar]
    xy = Xv @ Yv
    s = (ag.chi - wf[vstar] * Xv) @ Yv
    a1 = ag.xi @ Yv
    a2 = d_in[vstar] * s
    a3 = (
        ag.rho1 @ ag.Lam @ Yv
        - wb[vstar] * Yv @ ag.Lam @ Yv
        - ag.rho2 @ Yv
        + wb[vstar] * xy**2 * wf[vstar] ** 2
    )
    b2 = s * s
    b1_exact = Yv @ ag.Lam @ Yv - (wf[vstar] * xy) ** 2
    b1_approx = (k2 / 2.0) * (
        (Yv**2) @ ag.phi - wf[vstar] ** 2 * (Xv**2) @ (Yv**2)
    )
    assert a1 == pytest.approx(nv["a1"], rel=1e-10)
    assert a2 == pytest.approx(nv["a2"], rel=1e-10)
    assert a3 == pytest.approx(nv["a3"], rel=1e-9)
    assert b2 == pytest.approx(nv["b2"], rel=1e-10)
    assert b1_exact == pytest.approx(nv["b1_exact"], rel=1e-9)
    assert b1_approx == pytest.approx(nv["b1_approx"], rel=1e-10)


@pytest.mark.parametrize("ustar", [0, 12, 24])
def test_forward_terms_fast_vs_naive(setup, ustar):
    X, Y, wf, wb, d_out, d_in = setup
    n, k2 = X.shape
    # Eqs. (23)-(28): the backward oracle and aggregates with roles swapped
    nv = naive_terms(Y, X, wb, wf, d_in, d_out, ustar)
    ag = aggregates(Y, X, wb, wf, d_in)
    Xu, Yu = X[ustar], Y[ustar]
    xy = Xu @ Yu
    s = (ag.chi - wb[ustar] * Yu) @ Xu
    a1 = ag.xi @ Xu
    a2 = d_out[ustar] * s
    a3 = (
        ag.rho1 @ ag.Lam @ Xu
        - wf[ustar] * Xu @ ag.Lam @ Xu
        - ag.rho2 @ Xu
        + wb[ustar] ** 2 * xy**2 * wf[ustar]
    )
    b2 = s * s
    b1_exact = Xu @ ag.Lam @ Xu - (wb[ustar] * xy) ** 2
    b1_approx = (k2 / 2.0) * ((Xu**2) @ ag.phi - wb[ustar] ** 2 * (Xu**2) @ (Yu**2))
    assert a1 == pytest.approx(nv["a1"], rel=1e-10)
    assert a2 == pytest.approx(nv["a2"], rel=1e-10)
    assert a3 == pytest.approx(nv["a3"], rel=1e-9)
    assert b2 == pytest.approx(nv["b2"], rel=1e-10)
    assert b1_exact == pytest.approx(nv["b1_exact"], rel=1e-9)
    assert b1_approx == pytest.approx(nv["b1_approx"], rel=1e-10)


def test_b1_sandwich_bound(setup):
    # Eq. (12): b1_mid <= b1_exact <= k' * b1_mid need not hold pointwise on
    # the lower side (cancellation), but the paper's upper bound does:
    X, Y, wf, wb, d_out, d_in = setup
    k2 = X.shape[1]
    for v in range(X.shape[0]):
        nv = naive_terms(X, Y, wf, wb, d_out, d_in, v)
        assert nv["b1_exact"] <= k2 * nv["b1_mid"] + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_strict_update_is_exact_coordinate_minimizer(seed):
    # independent of the aggregate formulas: the objective is quadratic in
    # each single weight, so three evaluations give its exact 1-D minimizer.
    # Mostly-positive embeddings put 24 of the 30 minimizers above the 1/n
    # floor and 6 below it.
    rng = np.random.default_rng(seed)
    n, k2, lam = 40, 4, 1.0
    X, Y = rng.random((2, n, k2)) * 0.4 - 0.15
    wf, wb = rng.random(n) * 3 + 0.2, rng.random(n) * 2 + 0.1
    d_out, d_in = rng.integers(1, 10, (2, n)).astype(float)
    roles = ((update_backward_weights, 3), (update_forward_weights, 2))
    for v in (0, 17, n - 1):
        for update, pos in roles:
            def obj(t):
                args = [X, Y, wf, wb, d_out, d_in]
                args[pos] = args[pos].copy()
                args[pos][v] = t
                return objective(*args, lam)

            f0, f1, f2 = obj(0.0), obj(1.0), obj(2.0)
            a = (f0 - 2 * f1 + f2) / 2
            b = f1 - f0 - a
            expected = max(1.0 / n, -b / (2 * a))
            got = update(X, Y, wf, wb, d_out, d_in, lam=lam, strict=True,
                         rng=OneNodeRng(v))
            assert got[v] == pytest.approx(expected, rel=1e-9)


# ------------------------------------------------------ sweeps and descent
def test_sweep_respects_floor(setup):
    X, Y, wf, wb, d_out, d_in = setup
    n = X.shape[0]
    wb2 = update_backward_weights(X, Y, wf, wb, d_out, d_in, lam=10.0)
    wf2 = update_forward_weights(X, Y, wf, wb2, d_out, d_in, lam=10.0)
    assert np.all(wb2 >= 1.0 / n - 1e-12)
    assert np.all(wf2 >= 1.0 / n - 1e-12)


def test_sweep_does_not_mutate_inputs(setup):
    X, Y, wf, wb, d_out, d_in = setup
    wf0, wb0 = wf.copy(), wb.copy()
    update_backward_weights(X, Y, wf, wb, d_out, d_in)
    update_forward_weights(X, Y, wf, wb, d_out, d_in)
    np.testing.assert_array_equal(wf, wf0)
    np.testing.assert_array_equal(wb, wb0)


def test_objective_decreases_in_strict_mode():
    # in strict mode every coordinate update is an exact 1-D minimizer, so
    # each sweep must not increase the objective.
    g = dcsbm(50, 300, 2, seed=3)[0]
    X, Y = approxppr(g, 4, seed=0)
    n = g.n
    wf = np.maximum(g.d_out, 1.0 / n)
    wb = np.ones(n)
    lam = 10.0
    prev = objective(X, Y, wf, wb, g.d_out, g.d_in, lam)
    rng = np.random.default_rng(0)
    for _ in range(4):
        wb = update_backward_weights(
            X, Y, wf, wb, g.d_out, g.d_in, lam=lam, rng=rng, strict=True
        )
        cur = objective(X, Y, wf, wb, g.d_out, g.d_in, lam)
        assert cur <= prev + 1e-8
        prev = cur
        wf = update_forward_weights(
            X, Y, wf, wb, g.d_out, g.d_in, lam=lam, rng=rng, strict=True
        )
        cur = objective(X, Y, wf, wb, g.d_out, g.d_in, lam)
        assert cur <= prev + 1e-8
        prev = cur


def test_degree_calibration_improves():
    # Eq. (5): after reweighting, total embedded strength per node should be
    # much closer to the degrees than before. (lam=1 here: at n=60 the
    # paper's lam=10 regularizer dominates the residuals and trades
    # calibration away — at paper scale the residual sum over n >> 60 nodes
    # dominates instead.)
    g = dcsbm(60, 400, 3, seed=4)[0]
    X, Y = approxppr(g, 6, seed=1)
    n = g.n
    wf0 = np.maximum(g.d_out, 1.0 / n)
    wb0 = np.ones(n)

    def calib_err(wf, wb):
        wx, wy = wf[:, None] * X, wb[:, None] * Y
        diag = np.einsum("ij,ij->i", wx, wy)
        in_s = wy @ wx.sum(0) - diag
        out_s = wx @ wy.sum(0) - diag
        return np.sum((in_s - g.d_in) ** 2) + np.sum((out_s - g.d_out) ** 2)

    wf, wb = wf0.copy(), wb0.copy()
    rng = np.random.default_rng(1)
    for _ in range(8):
        wb = update_backward_weights(X, Y, wf, wb, g.d_out, g.d_in, lam=1.0, rng=rng)
        wf = update_forward_weights(X, Y, wf, wb, g.d_out, g.d_in, lam=1.0, rng=rng)
    assert calib_err(wf, wb) < 0.5 * calib_err(wf0, wb0)


# -------------------------------------------------------------- Example 2
def test_example2_update_structure():
    """Example 2 semantics: with w<- = 1 and w-> = degrees on the Fig. 1
    graph, the first backward update equals (a1+a2-a3)/(b1+b2) computed from
    the naive definitions (lambda = 0), floored at 1/9."""
    g = example_graph()
    X, Y = approxppr(g, 2, q=8, seed=0)
    wf = g.d_out.copy()
    wb = np.ones(9)
    nv = naive_terms(X, Y, wf, wb, g.d_out, g.d_in, 0)
    expected = max(1 / 9, (nv["a1"] + nv["a2"] - nv["a3"]) / (nv["b1_approx"] + nv["b2"]))
    wb2 = update_backward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=0.0, rng=OneNodeRng(0)
    )
    assert wb2[0] == pytest.approx(expected, rel=1e-9)
    assert np.all(wb2[1:] == 1.0)


def test_lam_zero_with_zero_rows_is_finite():
    # isolated nodes have all-zero embeddings; with lam=0 their update is
    # 0/0 — the sweep must keep the weight rather than produce NaN
    X = np.zeros((5, 3))
    Y = np.zeros((5, 3))
    X[0] = [1.0, 0.5, -0.2]
    Y[1] = [0.3, -0.1, 0.7]
    wf = np.ones(5)
    wb = np.ones(5)
    d = np.ones(5)
    for ch in (1, 4):
        wb2 = update_backward_weights(X, Y, wf, wb, d, d, lam=0.0, chunk=ch)
        wf2 = update_forward_weights(X, Y, wf, wb, d, d, lam=0.0, chunk=ch)
        assert np.isfinite(wb2).all() and np.isfinite(wf2).all()


def test_chunked_matches_sequential_quality():
    # chunked sweeps change only the update order; after one epoch the
    # weights must be close (not identical) to the sequential sweep's
    g = dcsbm(300, 2500, 3, seed=9)[0]
    X, Y = approxppr(g, 6, seed=2)
    wf = np.maximum(g.d_out, 1 / g.n)
    wb = np.ones(g.n)
    seq = update_backward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=1.0, rng=np.random.default_rng(0)
    )
    chk = update_backward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=1.0,
        rng=np.random.default_rng(0), chunk=64,
    )
    corr = np.corrcoef(seq, chk)[0, 1]
    assert corr > 0.95
