"""Reproduction of "Homogeneous Network Embedding for Massive Graphs via
Reweighted Personalized PageRank" (NRP, VLDB 2020) on PySpark.

Layout (see DESIGN.md):
  graphs/      edge-list substrate + synthetic dataset generators
  linalg/      block-Krylov SVD + long-format DataFrame matrices
  ppr/         personalized-PageRank oracle + distributed power iteration
  core/        the paper's contribution: ApproxPPR, reweighting, NRP
  baselines/   competitor embedding methods (5 groups, 10 methods)
  ml/          logistic-regression substrate (no sklearn offline)
  tasks/       link prediction, graph reconstruction, node classification
  experiments/ per-table harness runners
"""
__version__ = "0.1.0"
