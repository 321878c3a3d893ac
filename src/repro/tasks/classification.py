"""Node classification (paper Section 5.4).

Features: L2-normalized forward/backward vectors concatenated (so NRP and
ApproxPPR share a representation, as the paper notes). A one-vs-rest
logistic-regression classifier is trained on a random fraction of the
nodes and evaluated with micro/macro F1 on the rest.
"""
from __future__ import annotations

import numpy as np

from repro.embedding import Embedding
from repro.ml.logreg import LogisticRegression
from repro.tasks.metrics import micro_macro_f1


def node_classification_f1(
    emb: Embedding,
    labels: np.ndarray,
    *,
    train_ratio: float = 0.5,
    seed: int = 0,
) -> tuple[float, float]:
    """(micro_f1, macro_f1) at the given train ratio."""
    feats = emb.features()
    n = len(labels)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = max(int(round(n * train_ratio)), 1)
    tr, te = perm[:n_train], perm[n_train:]
    if len(te) == 0:
        raise ValueError("train_ratio leaves no test nodes")
    clf = LogisticRegression(epochs=300).fit(feats[tr], labels[tr])
    pred = clf.predict(feats[te])
    return micro_macro_f1(labels[te], pred)
