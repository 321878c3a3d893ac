"""The traced run: which functions are wrapped, and how the per-layer
metrics are derived from their spans.

:func:`run_traced` says in which order a traced run embeds and which
exact-repeat counters it compares.
"""
from __future__ import annotations

import importlib

import numpy as np
from repro.linalg.bksvd import default_q

from tracer import job_group, spark_group_stats
from workloads import NRP_PARAMS

MATVECS = {"spmv", "spmv_t", "spmm"}
REPEAT_COUNTERS = (
    "bksvd.matvecs", "ppr.supersteps", "reweight.half_epochs",
    "spark.jobs", "spark.stages",
)
SPARK_STATS = ("jobs", "stages", "tasks", "shuffle_write_bytes",
               "shuffle_read_bytes", "executor_run_s")


def _cols(x) -> int:
    return x.shape[1] if x.ndim == 2 else 1


def register(b) -> None:
    """Point the tracer at the public functions of every layer."""
    from repro.graphs import edgelist, generators
    from repro.linalg.longmat import LongMatrix
    from repro.tasks import linkpred, reconstruction, split

    # repro.core re-exports the functions nrp and approxppr under the names
    # of their modules, so fetch the modules themselves
    approxppr = importlib.import_module("repro.core.approxppr")
    nrp = importlib.import_module("repro.core.nrp")
    tr = b.tr
    LG = edgelist.LocalGraph
    for fn in ("dcsbm", "erdos_renyi"):
        tr.target(generators, fn, "generators")
    tr.target(split, "link_prediction_split", "split")
    tr.target(nrp, "nrp", "nrp")
    tr.target(LG, "csr", "csr")
    tr.target(LG, "csr_t", "csr_t")
    tr.target(edgelist.SparkGraph, "__init__", "sparkgraph")
    tr.target(approxppr, "approxppr_local", "approxppr")
    tr.target(approxppr, "bksvd_local", "bksvd")
    mv_attrs = lambda g, X, *a, **k: dict(cols=_cols(X), arcs=len(g.arcs))  # noqa: E731
    tr.target(LG, "spmv", "spmv", attrs=mv_attrs)
    tr.target(LG, "spmv_t", "spmv_t", attrs=mv_attrs)
    tr.target(LG, "pmv", "pmv")
    if b.spark is not None:
        sc = b.spark.sparkContext
        tr.target(approxppr, "approxppr_spark", "approxppr",
                  ctx=lambda: job_group(sc, b.tag + "ppr"))
        tr.target(approxppr, "bksvd_spark", "bksvd",
                  ctx=lambda: job_group(sc, b.tag + "bksvd"))
        tr.target(LongMatrix, "spmm", "spmm",
                  attrs=lambda x, *a, **k: dict(cols=x.n_cols, arcs=b.arcs))
        for fn in ("checkpoint", "gram", "to_numpy", "mm_small"):
            tr.target(LongMatrix, fn, fn)
    chunk = lambda *a, **k: dict(chunk=k.get("chunk", 1))  # noqa: E731
    tr.target(nrp, "update_backward_weights", "reweight", attrs=chunk)
    tr.target(nrp, "update_forward_weights", "reweight", attrs=chunk)
    tr.target(linkpred, "link_prediction_auc", "linkpred")
    tr.target(reconstruction, "reconstruction_precision", "recon",
              attrs=lambda emb, g, ks, sample=None, **k: dict(
                  pairs=sample or g.n * (g.n - 1) // (1 if g.directed else 2)))
    tr.target(reconstruction, "sample_candidate_pairs", "recon.candidates")
    tr.target(reconstruction, "topk_pairs_numpy", "recon.topk")
    tr.target(reconstruction, "topk_pairs_spark", "recon.topk")


def _named(root, *names):
    return [s for s in root.walk() if s.name in names]


def _total(spans) -> float:
    return float(sum(s.dur for s in spans))


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def _gather_bytes(spans) -> int:
    """Computed, not measured: arcs x block width x 8 bytes per product."""
    return int(sum(s.attrs["arcs"] * s.attrs["cols"] * 8 for s in spans))


def embed_metrics(embed, b) -> dict:
    """Per-layer metrics of one traced embed span."""
    (nrp,) = embed.children
    bk = _named(nrp, "bksvd")
    ap = _named(nrp, "approxppr")
    in_bk = {s.id for x in bk for s in x.walk()}
    ppr = [s for s in ap[0].walk() if s.id not in in_bk]
    bk_mv = [s for s in _named(nrp, *MATVECS) if s.id in in_bk]
    ppr_mv = [s for s in ppr if s.name in MATVECS]
    steps = [s.dur for s in ppr if s.name == "pmv"]
    if not steps:  # Spark: a superstep is spmm (lazy) to its checkpoint
        seq = [s for s in ppr if s.name in ("spmm", "checkpoint")]
        steps = [c.end - s.start for s, c in zip(seq, seq[1:])
                 if s.name == "spmm" and c.name == "checkpoint"]
    rw = _named(nrp, "reweight")
    k2 = b.wl.k // 2
    m = {
        "bksvd.s": (_total(bk), "s"),
        "bksvd.self_s": (float(sum(s.self_s for s in bk)), "s"),
        "bksvd.matvecs": (len(bk_mv), "count"),
        "bksvd.block_width": (
            k2 * (default_q(b.n, NRP_PARAMS["eps"], k2) + 1), "count"),
        "bksvd.gather_bytes_computed": (_gather_bytes(bk_mv), "B"),
        "ppr.s": (_total(ap) - _total(bk), "s"),
        "ppr.supersteps": (len(ppr_mv), "count"),
        "ppr.step_s.p50": (_pct(steps, 50), "s"),
        "ppr.step_s.p90": (_pct(steps, 90), "s"),
        "ppr.gather_bytes_computed": (_gather_bytes(ppr_mv), "B"),
        "longmat.checkpoint_calls": (len(_named(nrp, "checkpoint")), "count"),
        "longmat.checkpoint_s": (_total(_named(nrp, "checkpoint")), "s"),
        "longmat.gram_s": (_total(_named(nrp, "gram")), "s"),
        "longmat.collect_s": (_total(_named(nrp, "to_numpy")), "s"),
        "reweight.s": (_total(rw), "s"),
        "reweight.half_epochs": (len(rw), "count"),
        "reweight.half_epoch_s.p50": (_pct([s.dur for s in rw], 50), "s"),
        "reweight.chunk": (rw[0].attrs["chunk"] if rw else 0, "count"),
        "nrp.self_s": (nrp.self_s, "s"),
        "trace.embed_s": (nrp.dur, "s"),
    }
    for phase in ("bksvd", "ppr"):
        st = (spark_group_stats(b.spark.sparkContext, b.tag + phase)
              if b.spark is not None else dict.fromkeys(SPARK_STATS, 0))
        for key in SPARK_STATS:
            m[f"spark.{key}.{phase}"] = (st[key], "s" if key.endswith("_s")
                                         else "B" if "bytes" in key
                                         else "count")
    for key in SPARK_STATS:
        a, bb = m[f"spark.{key}.bksvd"], m[f"spark.{key}.ppr"]
        m[f"spark.{key}"] = (a[0] + bb[0], a[1])
    return m


def score_metrics(score) -> dict:
    recon = _named(score, "recon")
    cand = _total(_named(score, "recon.candidates"))
    return {
        "linkpred.s": (_total(_named(score, "linkpred")), "s"),
        "recon.s": (_total(recon), "s"),
        "recon.candidates_s": (cand, "s"),
        "recon.topk_s": (_total(recon) - cand, "s"),
        "recon.pairs_scored": (recon[0].attrs["pairs"], "count"),
    }


def setup_metrics(setup, arcs: int) -> dict:
    return {
        "generators.s": (_total(_named(setup, "generators")), "s"),
        "split.s": (_total(_named(setup, "split")), "s"),
        "edgelist.index_s": (_total(_named(setup, "edgelist.index")), "s"),
        "edgelist.sparkgraph_s": (_total(_named(setup, "sparkgraph")), "s"),
        "edgelist.arcs": (arcs, "count"),
    }


def run_traced(b) -> dict:
    """Set-up, then three embeds of one graph: A traced (it also takes the
    first-run warm-up), B untraced, C traced with scoring. C gives the
    layer metrics, C - B the tracing overhead. A and C must agree on every
    exact-repeat counter; on local backends A, B and C must be
    byte-identical. On Spark the local backend runs twice more, untraced:
    the byte check and the parity reference."""
    from repro.core.reweight import objective

    register(b)
    b.tr.install()
    sp, sg = b.set_up()
    setup = b.tr.spans[0]
    g = sp.train
    b.n, b.arcs = g.n, int(g.arcs.shape[0])
    local = b.wl.backend == "local"

    b.attempted += 1
    b.tag = "A-"
    before = len(b.tr.spans)
    first, _ = b.embed(g, sg, b.wl.backend)
    a = embed_metrics(b.tr.spans[before], b)

    b.tr.uninstall()
    b.attempted += 1
    res_b, untraced_s = b.embed(g, sg, b.wl.backend)
    if local:
        b.failed += not b.check_same(first, res_b, "untraced repeat")
    b.tr.install()

    b.tag = "C-"
    before = len(b.tr.spans)
    res, row = b.rep(sp, sg, first)
    b.tr.uninstall()
    if res is None:
        raise SystemExit("traced repetition raised")
    embed, score = [s for s in b.tr.spans[before:] if s.parent is None]
    m = embed_metrics(embed, b)
    m.update(score_metrics(score))
    m["recon.p_at_1000"] = (row["prec"], "1")
    if not local:
        ref, ok = b.local_reference(sp)
        b.failed += not (ok & b.check_parity(res, ref, b.n))

    diff = [f"{c} {a[c][0]}/{m[c][0]}" for c in REPEAT_COUNTERS
            if a[c][0] != m[c][0]]
    b.failed += not b.check(not diff, "counters did not repeat: " + ", ".join(diff))
    b.check(abs(m["nrp.self_s"][0] + m["bksvd.s"][0] + m["ppr.s"][0]
                + m["reweight.s"][0] - m["trace.embed_s"][0]) < 1e-6,
            "layer self times do not add up to embed_s")

    floor = 1.0 / g.n
    m.update(setup_metrics(setup, b.arcs))
    m["reweight.objective_final"] = (objective(
        res.X0, res.Y0, res.wf, res.wb, g.d_out, g.d_in, NRP_PARAMS["lam"]),
        "1")
    m["reweight.floor_count"] = (
        int((res.wf == floor).sum() + (res.wb == floor).sum()), "count")
    m["trace.untraced_embed_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (m["trace.embed_s"][0] - untraced_s, "s")
    return m
