"""Randomized block-Krylov SVD over any backend's sparse products, and
long-format matrices over Spark DataFrames."""
from repro.linalg.longmat import LongMatrix  # noqa: F401
