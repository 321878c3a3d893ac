"""Outside-in tracing for the NRP benchmark.

Nothing under ``src/`` knows about this module. :class:`Tracer` replaces
public functions of each layer (module attributes and class methods) with
wrappers that record one span per call, and restores them on
:meth:`Tracer.uninstall`. Spans carry a parent id, so a layer's self time is
its duration minus the time covered by its child spans (``spmv`` nests in
``pmv``; on Spark the work lands in the eager ``checkpoint``, not in the
lazy ``spmm``).

Spark numbers come from the status store: the wrappers around
``bksvd_spark`` and ``approxppr_spark`` put their jobs into a job group,
and :func:`spark_group_stats` sums the stages of that group's jobs.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from py4j.protocol import Py4JJavaError


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    attrs: dict
    start: float = 0.0
    end: float = 0.0
    children: list = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - sum(c.dur for c in self.children)

    def walk(self):
        """This span and every span below it, in start order."""
        yield self
        for c in self.children:
            yield from c.walk()


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent.id if parent else None, name, attrs)
        self.spans.append(s)
        if parent:
            parent.children.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def target(
        self,
        owner,
        attr: str,
        name: str,
        attrs: Callable[..., dict] | None = None,
        ctx: Callable[[], object] | None = None,
    ) -> None:
        """Register ``owner.attr`` to be wrapped in a span called ``name``.
        ``attrs(*args, **kw)`` adds span attributes; ``ctx()`` returns a
        context manager entered inside the span (Spark job groups)."""
        self._targets.append((owner, attr, name, attrs, ctx))

    def install(self) -> None:
        for owner, attr, name, attrs, ctx in self._targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs, ctx))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, name, attrs, ctx):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kw):
            extra = attrs(*args, **kw) if attrs else {}
            with tracer.span(name, **extra):
                if ctx is None:
                    return orig(*args, **kw)
                with ctx():
                    return orig(*args, **kw)

        return traced


@contextmanager
def job_group(sc, group: str):
    """Run the enclosed Spark jobs under ``group``; restore the caller's."""
    prev = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup(group, group)
    try:
        yield
    finally:
        if prev is None:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        else:
            sc.setJobGroup(prev, prev)


def spark_group_stats(sc, group: str) -> dict:
    """Jobs, stages, tasks, shuffle bytes and executor run time of every
    job Spark ran under ``group``. Skipped stages (shuffle output reused)
    are not counted."""
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()  # the status store is fed async
    tracker = sc.statusTracker()
    store = jsc.statusStore()
    jobs = tracker.getJobIdsForGroup(group)
    stage_ids = set()
    for j in jobs:
        stage_ids.update(tracker.getJobInfo(j).stageIds)
    out = dict(
        jobs=len(jobs), stages=0, tasks=0, shuffle_write_bytes=0,
        shuffle_read_bytes=0, executor_run_s=0.0,
    )
    for sid in stage_ids:
        try:
            st = store.lastStageAttempt(sid)
        except Py4JJavaError:  # never submitted
            continue
        if st.status().toString() == "SKIPPED":
            continue
        out["stages"] += 1
        out["tasks"] += st.numTasks()
        out["shuffle_write_bytes"] += st.shuffleWriteBytes()
        out["shuffle_read_bytes"] += st.shuffleReadBytes()
        out["executor_run_s"] += st.executorRunTime() / 1e3
    return out
