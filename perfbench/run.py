#!/usr/bin/env python3
"""Layered NRP benchmark: time to embedding, scoring, and where time goes.

    python3 perfbench/run.py --workload sbm-dir-40k --seed 1 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (perfbench/README.md
lists both, with the layer -> metric -> workload map). Either way the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics; the line before it records the run environment.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"  # Spark scratch and temp files; gitignored
NPROC = os.cpu_count() or 1
PARITY_PAIRS = 10_000
PARITY_TOL = 1e-6  # of max |score|
SETUP_REPS = 3


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def pin_environment() -> None:
    """Keep every file the run writes inside the checkout, and import the
    program from its ``src/`` (never from an installed copy)."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark")
    # every JVM, spark-submit's launcher too: temp files here, no hsperfdata
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not src/")


def start_spark():
    """local[nproc] session with the settings of conftest.py and
    jobs/_common.py, no console progress bar, and a status store large
    enough to keep every job of a run."""
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.master(f"local[{NPROC}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.ui.retainedStages", "100000")
        .config("spark.local.dir", str(WORK / "spark"))
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    # start the Python workers that topk_pairs_spark's mapInPandas reuses
    s.range(0, NPROC, numPartitions=NPROC).mapInPandas(
        lambda it: it, "id long").collect()
    return s


def stop_spark(spark) -> None:
    """Stop the session, then the JVM, and wait until it has exited."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    spark.stop()
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def environment(spark) -> dict:
    import numpy
    import pyspark

    sha = "unknown"  # the checkout need not be a git repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        sha = out[1]
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + p.read_bytes())
    return {
        "commit": sha,
        "src_sha256": src.hexdigest()[:16],
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "spark_master": spark.sparkContext.master if spark else None,
        "spark_shuffle_partitions": (
            spark.conf.get("spark.sql.shuffle.partitions") if spark else None),
    }


# -- one workload -----------------------------------------------------------
class Bench:
    def __init__(self, wl, seed: int, spark, tracer) -> None:
        self.wl, self.seed, self.spark, self.tr = wl, seed, spark, tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}  # sample counts, printed with the environment
        # set by the traced run: graph size, and the job-group prefix of the
        # embed being traced
        self.n = self.arcs = 0
        self.tag = ""

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
            log(f"CHECK FAILED: {what}")
        return ok

    def set_up(self):
        """Graph, link split, and the indexes the program reads: CSR of A
        and A^T, degrees, the edge-key set scoring reads, and on Spark the
        cached SparkGraph."""
        from repro.graphs import edgelist
        from repro.tasks import split as split_mod

        tr = self.tr
        with tr.span("setup"):
            g = self.wl.make_graph(self.seed)
            sp = split_mod.link_prediction_split(g, frac=0.3, seed=self.seed)
            train = sp.train
            with tr.span("edgelist.index"):
                train.csr(), train.csr_t(), train.d_out, train.d_in
                train.edge_key_set()
            sg = edgelist.SparkGraph(self.spark, train) if self.spark else None
        return sp, sg

    def embed(self, train, sg, backend: str):
        nrp_mod = importlib.import_module("repro.core.nrp")
        with self.tr.span("embed"):
            t = time.perf_counter()
            res = nrp_mod.nrp(
                train, self.wl.k, seed=self.seed, backend=backend,
                spark=self.spark if backend == "spark" else None, sg=sg,
                **self.wl.nrp_params,
            )
            return res, time.perf_counter() - t

    def score(self, res, sp):
        from repro.embedding import Embedding
        from repro.tasks import linkpred, reconstruction

        emb = Embedding(X=res.X, Y=res.Y, name="nrp")
        with self.tr.span("score"):
            t = time.perf_counter()
            auc = linkpred.link_prediction_auc(emb, sp)
            prec = reconstruction.reconstruction_precision(
                emb, sp.train, [1000], sample=self.wl.recon_sample,
                seed=self.seed, spark=self.spark,
            )[1000]
            return auc, prec, time.perf_counter() - t

    def check_output(self, res, n: int, auc: float) -> bool:
        import numpy as np

        shape = (n, self.wl.k // 2)
        ok = self.check(res.X.shape == shape and res.Y.shape == shape,
                        f"shape {res.X.shape}/{res.Y.shape} != {shape}")
        ok &= self.check(bool(np.isfinite(res.X).all() and
                              np.isfinite(res.Y).all()), "non-finite values")
        ok &= self.check(auc >= self.wl.auc_floor,
                         f"lp_auc {auc:.4f} < floor {self.wl.auc_floor}")
        return ok

    def check_same(self, a, b, what: str) -> bool:
        return self.check(
            a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes(),
            f"{what}: same seed gave different X/Y bytes",
        )

    def check_parity(self, res, ref, n: int) -> bool:
        """Spark vs local backend: compare X_u.Y_v on sampled pairs, not the
        factors (they differ by a rotation)."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        u, v = rng.integers(0, n, (2, PARITY_PAIRS))
        s = np.einsum("ij,ij->i", res.X[u], res.Y[v])
        r = np.einsum("ij,ij->i", ref.X[u], ref.Y[v])
        err = float(np.abs(s - r).max() / max(np.abs(r).max(), 1e-300))
        log(f"spark/local score parity: {err:.2e} of max |score|")
        return self.check(err <= PARITY_TOL, f"spark/local parity {err:.2e}")

    def rep(self, sp, sg, first):
        """One timed embed + score, with the output checks. Returns
        (result, row) or (None, None) if the program raised."""
        self.attempted += 1
        try:
            res, embed_s = self.embed(sp.train, sg, self.wl.backend)
            auc, prec, score_s = self.score(res, sp)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.problems.append("exception")
            return None, None
        ok = self.check_output(res, sp.train.n, auc)
        if first is not None and self.wl.backend == "local":
            ok &= self.check_same(first, res, "repeat")
        self.failed += not ok
        log(f"rep {self.attempted}: embed {embed_s:.3f}s score {score_s:.3f}s"
            f" auc {auc:.4f} p@1000 {prec:.4f}")
        return res, dict(embed_s=embed_s, score_s=score_s, auc=auc, prec=prec)

    def local_reference(self, sp):
        """On Spark, the local backend twice on the same graph: it must be
        byte-deterministic, and it is the parity reference."""
        self.attempted += 1
        a, _ = self.embed(sp.train, None, "local")
        b, _ = self.embed(sp.train, None, "local")
        ok = self.check_same(a, b, "local reference")
        return a, ok


def run_untraced(b: Bench, seconds: float, session_s: float):
    """Set up SETUP_REPS times, then embed + score until ``seconds`` have
    passed (at least ``min_reps`` times); report medians."""
    setups, sp, sg = [], None, None
    for _ in range(SETUP_REPS):
        if sg is not None:
            sg.unpersist()
        t = time.perf_counter()
        sp, sg = b.set_up()
        setups.append(time.perf_counter() - t)
    log(f"setup reps {[round(s, 3) for s in setups]} + session {session_s:.3f}s")

    rows, first = [], None
    t0 = time.perf_counter()
    while len(rows) < b.wl.min_reps or (
        time.perf_counter() - t0 < seconds and len(rows) < 50
    ):
        res, row = b.rep(sp, sg, first)
        if row is None:
            break
        if first is None:
            first = res
        rows.append(row)
    if not rows:
        raise SystemExit("no repetition completed")
    if b.wl.backend == "spark":
        ref, ok = b.local_reference(sp)
        ok &= b.check_parity(first, ref, sp.train.n)
        b.failed += not ok

    arcs = int(sp.train.arcs.shape[0])
    embed_s = median([r["embed_s"] for r in rows])
    m = {
        "setup_s": (median(setups) + session_s, "s"),
        "embed_s": (embed_s, "s"),
        "embed_arcs_per_s": (arcs / embed_s, "arcs/s"),
        "run_s": (median([r["embed_s"] + r["score_s"] for r in rows]), "s"),
        "lp_auc": (rows[0]["auc"], "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pass_rate": ((b.attempted - b.failed) / b.attempted, "1"),
    }
    b.info.update(reps=len(rows), setup_reps=SETUP_REPS)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pin_environment()
    from layers import run_traced
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    spark, session_s = None, 0.0
    try:
        if wl.backend == "spark":
            t = time.perf_counter()
            spark = start_spark()
            session_s = time.perf_counter() - t
        b = Bench(wl, args.seed, spark, Tracer())
        if args.trace:
            metrics = run_traced(b)
        else:
            metrics = run_untraced(b, args.seconds, session_s)
        env = environment(spark)
    finally:
        if spark is not None:
            stop_spark(spark)

    if b.problems:
        log("problems: " + "; ".join(sorted(set(b.problems))))
    print(json.dumps({"env": env, "workload": wl.name, "seed": args.seed,
                      "trace": args.trace, **b.info}))
    print(json.dumps({
        "correct": b.failed == 0 and not b.problems,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
