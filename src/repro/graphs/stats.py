"""Dataset statistics rows (the paper's Tables 3 and 4)."""
from __future__ import annotations

import numpy as np

from repro.graphs.edgelist import LocalGraph


def stats_row(g: LocalGraph, n_labels: int | None = None) -> dict:
    """One Table-3-style row: name, |V|, |E|, type, #labels."""
    return {
        "name": g.name,
        "n": g.n,
        "m": g.m,
        "type": "directed" if g.directed else "undirected",
        "labels": n_labels if n_labels is not None else "-",
        "avg_deg": round(g.m / max(g.n, 1), 2),
        "max_out_deg": int(g.d_out.max()) if g.m else 0,
    }


def evolving_stats_row(
    g_old: LocalGraph, new_edges: np.ndarray, name: str
) -> dict:
    """One Table-4-style row for an evolving graph."""
    return {
        "name": name,
        "n": g_old.n,
        "e_old": g_old.m,
        "e_new": int(new_edges.shape[0]),
        "type": "directed" if g_old.directed else "undirected",
    }
