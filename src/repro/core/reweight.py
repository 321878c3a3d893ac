"""Node reweighting — paper Algorithms 2 (backward) and 4 (forward).

Coordinate descent on the objective of Eq. (6): find per-node forward and
backward weights such that the total embedded proximity out of each node
matches its out-degree and into each node matches its in-degree.

Everything is written once, in Algorithm 2's notation: the weights w<- of
the Y side are updated against the X side. Algorithm 4 (Appendix B,
Eqs. 23-28) is the same computation with the roles of X/Y, w->/w<- and
d_out/d_in swapped, so the forward versions are the swapped calls.

* :func:`naive_terms` — the per-node terms (a1, a2, a3, b1, b2) straight
  from the definitional Eq. (7): O(n k') per node. Test oracle only.
* :func:`update_backward_weights` / :func:`update_forward_weights` — the
  paper's O(n k'^2) sweep over the aggregates xi, chi, Lambda, rho1, rho2,
  phi (Eqs. 9, 10, 13), updating rho1/rho2 in O(k') per node (Eq. 11). It
  is sequential (Gauss-Seidel), so it runs driver-side in numpy (DESIGN §5).

``b1`` uses the paper's k'/2 heuristic (Eq. 14) by default; ``exact_b1``
switches to the exact value b1 = Y_v Λ Y_v^T − (w→_v X_v·Y_v)^2, which this
reproduction notes is available at the same O(k'^2) cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# -- objective (Eq. 6, squared-residual form implied by the paper's derivatives)
def objective(X, Y, wf, wb, d_out, d_in, lam: float) -> float:
    """O = sum_v (in-strength(v) - d_in(v))^2 + sum_u (out-strength(u) -
    d_out(u))^2 + lam * sum_u (wf_u^2 + wb_u^2)."""
    wx = wf[:, None] * X  # (n, k')
    wy = wb[:, None] * Y
    sx = wx.sum(axis=0)  # sum_u wf_u X_u
    sy = wy.sum(axis=0)
    diag = np.einsum("ij,ij->i", wx, wy)  # wf_v wb_v X_v.Y_v
    in_strength = wy @ sx - diag  # sum_{u != v} wf_u X_u . (wb_v Y_v)
    out_strength = wx @ sy - diag
    return float(
        np.sum((in_strength - d_in) ** 2)
        + np.sum((out_strength - d_out) ** 2)
        + lam * (np.sum(wf**2) + np.sum(wb**2))
    )


# -- naive definitional terms (Eq. 7): test oracle
def naive_terms(X, Y, wf, wb, d_out, d_in, vstar: int) -> dict[str, float]:
    """Terms of the backward update of node ``vstar``; the forward (Eq. 23)
    terms of node u* are ``naive_terms(Y, X, wb, wf, d_in, d_out, u*)``."""
    n, k2 = X.shape
    Yv = Y[vstar]
    wx = wf[:, None] * X
    a1 = float((d_out[:, None] * wx).sum(axis=0) @ Yv)
    mask = np.ones(n, dtype=bool)
    mask[vstar] = False
    a2 = float(d_in[vstar] * (wx[mask].sum(axis=0) @ Yv))
    # a3 = sum_u ( sum_{v != u, v != vstar} wf_u X_u.Y_v wb_v ) wf_u X_u.Y_vstar
    xy_v = X @ Yv  # (n,) X_u . Y_vstar
    inner_all = (X @ (wb[:, None] * Y).sum(axis=0).T)  # sum_v X_u.Y_v wb_v
    inner_self = np.einsum("ij,ij->i", X, Y) * wb  # v = u term
    inner_vstar = xy_v * wb[vstar]  # v = vstar term
    per_u = wf * (inner_all - inner_self - inner_vstar)
    per_u[vstar] += wf[vstar] * (
        np.dot(X[vstar], Y[vstar]) * wb[vstar]
    )  # add back v = u = vstar, double-subtracted
    a3 = float(np.sum(per_u * wf * xy_v))
    b1_exact = float(np.sum((wf[mask] * xy_v[mask]) ** 2))
    b1_mid = float(
        np.sum(wf[mask] ** 2 * ((X[mask] ** 2) @ (Yv**2)))
    )  # middle quantity of Eq. (12)
    b2 = float((wx[mask].sum(axis=0) @ Yv) ** 2)
    return {
        "a1": a1, "a2": a2, "a3": a3,
        "b1_exact": b1_exact, "b1_mid": b1_mid,
        "b1_approx": (k2 / 2.0) * b1_mid, "b2": b2,
    }


# -- fast aggregates (Eqs. 9, 10, 13; forward Eqs. 24, 25, 28 by swapping)
@dataclass
class Aggregates:
    xi: np.ndarray      # sum_u d_out(u) wf_u X_u                (1 x k')
    chi: np.ndarray     # sum_u wf_u X_u                         (1 x k')
    Lam: np.ndarray     # sum_u wf_u^2 X_u^T X_u                 (k' x k')
    rho1: np.ndarray    # sum_v wb_v Y_v                         (1 x k')
    rho2: np.ndarray    # sum_v wf_v^2 wb_v (X_v.Y_v) X_v        (1 x k')
    phi: np.ndarray     # phi[r] = sum_u wf_u^2 X_u[r]^2         (k',)


def aggregates(X, Y, wf, wb, d_out) -> Aggregates:
    """Backward aggregates; the forward ones are
    ``aggregates(Y, X, wb, wf, d_in)``."""
    wx = wf[:, None] * X
    xy = np.einsum("ij,ij->i", X, Y)
    return Aggregates(
        xi=(d_out[:, None] * wx).sum(axis=0),
        chi=wx.sum(axis=0),
        Lam=(wf[:, None] ** 2 * X).T @ X,
        rho1=(wb[:, None] * Y).sum(axis=0),
        rho2=((wf**2 * wb * xy)[:, None] * X).sum(axis=0),
        phi=(wf[:, None] ** 2 * X**2).sum(axis=0),
    )


# -- Gauss-Seidel sweep (Algorithm 2; Algorithm 4 with the roles swapped)
def update_backward_weights(
    X, Y, wf, wb, d_out, d_in, *, lam: float = 10.0,
    rng: np.random.Generator | None = None,
    exact_b1: bool = False, strict: bool = False, chunk: int = 1,
) -> np.ndarray:
    """One epoch of Algorithm 2: update every backward weight ``wb`` of the
    Y side once, in random order, against the X side (weights ``wf``),
    with incrementally-maintained rho1/rho2; returns the new ``wb``.

    ``strict=True`` makes each update the *exact* 1-D minimizer of the
    objective (drops the u=v* contributions that the paper's Eq. (7) keeps
    inside a1/a3, and uses exact b1) — guaranteeing monotone descent; the
    default follows the paper verbatim.

    ``chunk > 1`` vectorizes the sweep: nodes inside a chunk are updated
    Jacobi-style against the rho values frozen at chunk start, chunks are
    Gauss-Seidel. chunk=1 is the paper's exact sequential sweep; larger
    chunks change only the update *order* (the per-node formulas are
    identical) and are what makes n ~ 10^5 sweeps tractable in numpy."""
    n, k2 = X.shape
    rng = rng or np.random.default_rng(0)
    wb = wb.copy()
    ag = aggregates(X, Y, wf, wb, d_out)
    xi, chi, Lam, rho1, rho2, phi = ag.xi, ag.chi, ag.Lam, ag.rho1, ag.rho2, ag.phi
    # per-node constants, vectorized once per sweep
    xy = np.einsum("ij,ij->i", X, Y)          # X_v . Y_v
    a1_all = Y @ xi                           # xi Y_v^T
    chiY = Y @ chi                            # chi Y_v^T
    LamY = Y @ Lam                            # (n, k'): Lam Y_v^T rows
    yly = np.einsum("ij,ij->i", Y, LamY)      # Y_v Lam Y_v^T
    t_phi = (Y**2) @ phi                      # sum_r phi[r] Y_v[r]^2
    t_self = np.einsum("ij,ij->i", Y**2, X**2)  # sum_r X_v[r]^2 Y_v[r]^2
    floor = 1.0 / n
    if chunk > 1:
        order = rng.permutation(n)
        for lo in range(0, n, chunk):
            c = order[lo : lo + chunk]
            s = chiY[c] - wf[c] * xy[c]
            a1 = a1_all[c]
            a2 = d_in[c] * s
            a3 = (LamY[c] @ rho1 - wb[c] * yly[c] - Y[c] @ rho2
                  + wb[c] * xy[c] ** 2 * wf[c] ** 2)
            b2 = s * s
            if strict:
                a1 = a1 - d_out[c] * wf[c] * xy[c]
                a3 = a3 - wf[c] ** 2 * xy[c] * (X[c] @ rho1 - wb[c] * xy[c])
            if exact_b1 or strict:
                b1 = yly[c] - (wf[c] * xy[c]) ** 2
            else:
                b1 = (k2 / 2.0) * (t_phi[c] - wf[c] ** 2 * t_self[c])
            den = b1 + b2 + lam
            new = np.where(
                den > 0, np.maximum(floor, (a1 + a2 - a3) / np.where(den > 0, den, 1.0)),
                wb[c],  # flat objective (zero rows, lam=0): keep weight
            )
            delta = new - wb[c]
            rho1 = rho1 + delta @ Y[c]
            rho2 = rho2 + (delta * wf[c] ** 2 * xy[c]) @ X[c]
            wb[c] = new
        return wb
    for v in rng.permutation(n):
        s = chiY[v] - wf[v] * xy[v]           # (chi - wf_v X_v) Y_v^T
        a1 = a1_all[v]
        a2 = d_in[v] * s
        a3 = (rho1 @ LamY[v] - wb[v] * yly[v] - rho2 @ Y[v]
              + wb[v] * xy[v] ** 2 * wf[v] ** 2)
        b2 = s * s
        if strict:
            a1 = a1 - d_out[v] * wf[v] * xy[v]
            a3 = a3 - wf[v] ** 2 * xy[v] * (X[v] @ (rho1 - wb[v] * Y[v]))
        if exact_b1 or strict:
            b1 = yly[v] - (wf[v] * xy[v]) ** 2
        else:
            b1 = (k2 / 2.0) * (t_phi[v] - wf[v] ** 2 * t_self[v])
        den = b1 + b2 + lam
        new = max(floor, (a1 + a2 - a3) / den) if den > 0 else wb[v]
        delta = new - wb[v]
        if delta != 0.0:
            rho1 = rho1 + delta * Y[v]
            rho2 = rho2 + delta * wf[v] ** 2 * xy[v] * X[v]
            wb[v] = new
    return wb


def update_forward_weights(X, Y, wf, wb, d_out, d_in, **kw) -> np.ndarray:
    """One epoch of Algorithm 4 (Appendix B): Algorithm 2 with the roles
    swapped; returns the new forward weights. Keyword arguments as in
    :func:`update_backward_weights`."""
    return update_backward_weights(Y, X, wb, wf, d_in, d_out, **kw)
