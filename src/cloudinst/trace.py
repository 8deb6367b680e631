"""Wall-time spans of named pipeline stages, summed per name by a recorder.

A span (the span model of Sigelman et al., "Dapper", Google TR 2010, cut
down to one process) names a region of work, such as ``bq_p``, ``cl_q`` or
``nms`` (see ``bench.STAGES``).  ``recording()`` collects the seconds of
every span run inside it as a dict keyed by span name; a name seen twice
sums.  The active recorder lives in a ``ContextVar``, so a recorder sees the
spans of its own thread only; ``record`` adds those of another process to it.
Spans recorded in two processes at once sum their work, not wall time: a
name run in both can add up to more seconds than the call took.  With no
recorder active a span reads no clock and records nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter

_RECORDER: ContextVar[dict | None] = ContextVar("cloudinst_recorder", default=None)


@contextmanager
def span(name: str):
    """Add the wall time of the ``with`` body to ``name`` in the active recorder."""
    spans = _RECORDER.get()
    if spans is None:
        yield
        return
    t0 = perf_counter()
    try:
        yield
    finally:
        spans[name] = spans.get(name, 0.0) + perf_counter() - t0


@contextmanager
def recording():
    """Yield a dict of seconds per span name, filled by the spans run in the
    ``with`` body of this thread."""
    spans: dict = {}
    token = _RECORDER.set(spans)
    try:
        yield spans
    finally:
        _RECORDER.reset(token)


def record(spans: dict) -> None:
    """Add ``spans``, seconds per span name as ``recording()`` yields them (say,
    from another process), to the active recorder, if any."""
    if (active := _RECORDER.get()) is not None:
        active.update({name: active.get(name, 0.0) + s for name, s in spans.items()})
