"""Shared pieces of the text readers' block drivers.

Both text formats parse the same way: each byte block goes through the
format's vectorised parser (:mod:`repro.io.vectorparse`), and a block it
rejects re-parses with the format's reference record parser, whose
records :meth:`~repro.io.columnar.ColumnTrace.from_trace` turns into
columns.  This module holds the format-neutral steps of that loop:
accepting a vector parse (:func:`vector_part`), collecting numbered
records with ``path:lineno`` diagnostics (:func:`collect_records`,
which the record readers use too), and re-slicing parts into
fixed-size chunks (:func:`rechunk_parts`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import TraceFormatError
from repro.io.columnar import ColumnTrace
from repro.io.trace import Trace, TraceRecord

__all__ = ["collect_records", "join_parts", "rechunk_parts", "vector_part"]


def collect_records(
    numbered: Iterable[Tuple[int, object]],
    parse: Callable[[object], TraceRecord],
    path: object,
    floor_us: Optional[int] = None,
    limit: Optional[int] = None,
) -> Trace:
    """Parse ``(lineno, item)`` pairs into a time-ordered :class:`Trace`.

    Every error — a malformed item, or a timestamp before its
    predecessor or before ``floor_us`` (the end of the previous block)
    — is re-raised as ``path:lineno: message``.  With ``limit`` the
    loop stops after that many records, leaving the rest of
    ``numbered`` unread for the next call.
    """
    trace = Trace()
    for lineno, item in numbered:
        try:
            record = parse(item)
            if floor_us is not None and record.timestamp_us < floor_us:
                raise TraceFormatError(
                    "timestamp goes backwards across a block boundary; "
                    "traces must be time-ordered"
                )
            trace.append(record)
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(trace) == limit:
            break
    return trace


def vector_part(
    cols: Optional[dict], floor_us: Optional[int]
) -> Optional[ColumnTrace]:
    """A vector parser's columns as a validated part, or None.

    None sends the block to the record parser: the vector parser
    rejected it, its frames are out of order, or it starts before
    ``floor_us``.  The record parser then either loads the block or
    names the offending line.
    """
    if cols is None:
        return None
    if not cols:
        return ColumnTrace(np.empty(0, np.int64), np.empty(0, np.int64))
    try:
        part = ColumnTrace(**cols)
    except TraceFormatError:
        return None
    if floor_us is not None and part.start_us < floor_us:
        return None
    return part


def join_parts(parts: Iterable[ColumnTrace]) -> ColumnTrace:
    """One trace from time-ordered parts; a single part is returned as is."""
    parts = list(parts)
    return parts[0] if len(parts) == 1 else ColumnTrace.merge(*parts)


def rechunk_parts(
    parts: Iterable[ColumnTrace], chunk_frames: int
) -> Iterator[ColumnTrace]:
    """Re-slice a stream of time-ordered parts into exact-size chunks.

    The streaming readers parse whatever frame count a byte block
    happens to hold; this adapter restores the chunked-reader contract
    (every chunk except the last has exactly ``chunk_frames`` frames)
    without ever buffering more than one chunk plus one part.  Slices
    are zero-copy views; a merge only happens when a chunk spans parts.
    """
    pending: List[ColumnTrace] = []
    count = 0
    for part in parts:
        pending.append(part)
        count += len(part)
        while count >= chunk_frames:
            merged = pending[0] if len(pending) == 1 else ColumnTrace.merge(*pending)
            yield merged.slice(0, chunk_frames)
            merged = merged.slice(chunk_frames, count)
            count = len(merged)
            pending = [merged] if count else []
    if count:
        yield pending[0] if len(pending) == 1 else ColumnTrace.merge(*pending)
