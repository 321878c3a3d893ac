"""Self-tests of the DuckDB oracle on graph arcs: it must accept a correct
Spark result and catch a wrong one, so that a passing oracle check on the
graph substrate means something."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.edgelist import SparkGraph
from repro.graphs.generators import erdos_renyi
from repro.oracle import assert_equivalent

# per-arc transition probability 1/d_out(src), the oracle side of each join
TRANSITION_SQL = """
    SELECT a.src AS src, a.dst AS dst, 1.0 / d.d_out AS p
    FROM arcs a JOIN deg d ON a.src = d.id
"""


@pytest.fixture(scope="module")
def graph(spark):
    g = erdos_renyi(50, 200, directed=True, seed=0)
    sg = SparkGraph(spark, g)
    deg = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(g.n), "d_out": g.d_out.astype(np.int64)})
    )
    yield sg.arcs, deg
    sg.unpersist()


def test_oracle_accepts_correct_aggregation(graph):
    arcs, _ = graph
    got = arcs.groupBy("src").agg(F.count("*").alias("d_out"))
    assert_equivalent(
        got,
        "SELECT src, COUNT(*) AS d_out FROM arcs GROUP BY src",
        arcs=arcs,
    )


def _transition(arcs, deg, key: str):
    return arcs.join(deg, arcs[key] == deg.id).select(
        "src", "dst", (F.lit(1.0) / F.col("d_out")).alias("p")
    )


def test_oracle_catches_wrong_join(graph):
    # deliberately wrong: degree table keyed on the arc's dst, not its src
    arcs, deg = graph
    with pytest.raises(AssertionError):
        assert_equivalent(
            _transition(arcs, deg, "dst"), TRANSITION_SQL, arcs=arcs, deg=deg
        )


def test_oracle_correct_join(graph):
    arcs, deg = graph
    assert_equivalent(
        _transition(arcs, deg, "src"), TRANSITION_SQL, arcs=arcs, deg=deg
    )
