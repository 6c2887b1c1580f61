"""Vehicle-Spy-like CSV trace format.

The paper's raw data was captured with Vehicle Spy 3 Professional, which
exports CSV.  We implement a compact equivalent with an explicit header
so traces round-trip losslessly, including the simulator ground truth::

    time_us,can_id_hex,extended,dlc,data_hex,source,is_attack
    12345,1A4,0,4,DEADBEEF,ECU_Powertrain,0

Files named ``*.gz`` are read and written gzip-compressed,
transparently: every reader produces results identical to reading the
uncompressed file.
"""

from __future__ import annotations

import csv
import io
import itertools
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.exceptions import TraceFormatError
from repro.io._builder import (
    collect_records,
    join_parts,
    rechunk_parts,
    vector_part,
)
from repro.io._gz import (
    DEFAULT_BLOCK_BYTES,
    iter_line_blocks,
    open_text,
    read_bytes,
)
from repro.io.columnar import ColumnTrace
from repro.io.trace import Trace, TraceRecord
from repro.io.vectorparse import parse_csv_bytes

HEADER = ["time_us", "can_id_hex", "extended", "dlc", "data_hex", "source", "is_attack"]


def write_csv(trace: Iterable[TraceRecord], path: Union[str, Path]) -> None:
    """Write a trace to ``path`` as CSV with the module header."""
    with open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        for record in trace:
            writer.writerow(
                [
                    record.timestamp_us,
                    f"{record.can_id:X}",
                    int(record.extended),
                    record.dlc,
                    record.data.hex().upper(),
                    record.source,
                    int(record.is_attack),
                ]
            )


def _row_record(row) -> TraceRecord:
    """One CSV data row as a :class:`TraceRecord`, validated."""
    if len(row) != len(HEADER):
        raise TraceFormatError(
            f"expected {len(HEADER)} fields, got {len(row)}"
        )
    time_us, id_hex, extended, dlc, data_hex, source, is_attack = row
    try:
        dlc_value = int(dlc)
        record = TraceRecord(
            timestamp_us=int(time_us),
            can_id=int(id_hex, 16),
            data=bytes.fromhex(data_hex),
            extended=bool(int(extended)),
            source=source,
            is_attack=bool(int(is_attack)),
        )
    except ValueError as exc:
        raise TraceFormatError(str(exc)) from exc
    if record.dlc != dlc_value:
        raise TraceFormatError(
            f"dlc field {dlc} disagrees with payload length {record.dlc}"
        )
    return record


def _csv_rows(lines: Iterable[str], path, lineno_base: int = 0):
    """``(lineno, row)`` for each non-empty row of ``lines``.

    At the start of the file (``lineno_base == 0``) the first row must
    be the header.
    """
    reader = csv.reader(lines)
    if not lineno_base:
        header = next(reader, None)
        if header != HEADER:
            raise TraceFormatError(
                f"{path}: unexpected CSV header {header!r}; expected {HEADER!r}"
            )
        lineno_base = 1
    return (
        (lineno, row)
        for lineno, row in enumerate(reader, start=lineno_base + 1)
        if row
    )


def read_csv(path: Union[str, Path]) -> Trace:
    """Read a CSV trace written by :func:`write_csv`."""
    with open_text(path, "r") as handle:
        return collect_records(_csv_rows(handle, path), _row_record, path)


# ----------------------------------------------------------------------
# Columnar-native path (no per-frame TraceRecord allocation)
# ----------------------------------------------------------------------

#: The header as the vector parser expects it on the first line.
_HEADER_BYTES = ",".join(HEADER).encode("ascii")


def _csv_module_parts(
    path: Union[str, Path],
    chunk_frames: int,
    skip_rows: int,
    last_end: Optional[int],
) -> Iterator[ColumnTrace]:
    """:func:`read_csv`'s row loop from data row ``skip_rows`` on.

    Yields parts of at most ``chunk_frames`` frames; ``last_end``
    carries the monotonicity horizon over from the rows already read.
    """
    with open_text(path, "r") as handle:
        rows = _csv_rows(handle, path)
        for _ in itertools.islice(rows, skip_rows):
            pass
        while True:
            trace = collect_records(
                rows, _row_record, path, last_end, limit=chunk_frames
            )
            if not len(trace):
                return
            last_end = trace.end_us
            yield ColumnTrace.from_trace(trace)


def _csv_block_parts(
    path: Union[str, Path],
    blocks: Iterable[Tuple[bytes, int]],
    chunk_frames: int,
) -> Iterator[ColumnTrace]:
    """Parse ``(data, lineno_base)`` blocks of whole lines into parts.

    Each block (the first starts with the header) goes through the
    vectorised :func:`repro.io.vectorparse.parse_csv_bytes`; a block it
    rejects (ragged rows, bad values, out-of-order frames) re-parses
    with :func:`read_csv`'s row step and names the offending line.  A
    quote byte hands the rest of the file to the ``csv`` module for
    good: a quoted field may span lines, so blocks can no longer be
    cut at newlines.  An empty file takes the same route, whose header
    check then rejects it.
    """
    consumed = 0
    last_end: Optional[int] = None
    handover = True
    for data, lineno_base in blocks:
        handover = b'"' in data
        if handover:
            break
        if lineno_base:
            # Continuation blocks lack the header line the vector
            # parser validates; re-prepend it.
            buf = _HEADER_BYTES + b"\n" + data
        else:
            buf = data
        part = vector_part(
            parse_csv_bytes(np.frombuffer(buf, dtype=np.uint8), _HEADER_BYTES),
            last_end,
        )
        if part is None:
            lines = io.TextIOWrapper(
                io.BytesIO(data), encoding="ascii", newline=""
            )
            part = ColumnTrace.from_trace(
                collect_records(
                    _csv_rows(lines, path, lineno_base),
                    _row_record,
                    path,
                    last_end,
                )
            )
        if len(part):
            consumed += len(part)
            last_end = part.end_us
            yield part
    if handover:
        yield from _csv_module_parts(path, chunk_frames, consumed, last_end)


def iter_csv_columns(
    path: Union[str, Path],
    chunk_frames: int,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Iterator[ColumnTrace]:
    """Stream a CSV trace as :class:`ColumnTrace` chunks.

    Yields consecutive chunks of exactly ``chunk_frames`` frames (the
    last may be short; bounded memory for captures larger than RAM).
    The file reads as ``block_bytes``-sized byte blocks of whole lines
    (gzip decompresses block-wise) through the same block driver as
    :func:`read_csv_columns`, so the two readers differ only in where
    their bytes come from.  Monotonicity is enforced across block and
    chunk boundaries.
    """
    if chunk_frames <= 0:
        raise TraceFormatError(
            f"chunk_frames must be positive, got {chunk_frames}"
        )
    return rechunk_parts(
        _csv_block_parts(
            path, iter_line_blocks(path, block_bytes), chunk_frames
        ),
        chunk_frames,
    )


def read_csv_columns(path: Union[str, Path]) -> ColumnTrace:
    """Read a CSV trace straight into a :class:`ColumnTrace`.

    Equal to ``ColumnTrace.from_trace(read_csv(path))``, ground-truth
    ``source``/``is_attack`` fields included, without a
    :class:`TraceRecord` per row: the whole file (decompressed first
    for ``.gz``) is one block for the block driver
    :func:`iter_csv_columns` uses, so writer-shaped files parse in
    vectorised passes and anything else takes the record parser.
    """
    data = read_bytes(path)
    return join_parts(
        _csv_block_parts(path, [(data, 0)] if data else [], sys.maxsize)
    )


def write_csv_columns(ct: ColumnTrace, path: Union[str, Path]) -> None:
    """Write a :class:`ColumnTrace` as CSV with the module header.

    Byte-identical to ``write_csv(ct.to_trace(), path)`` but renders
    straight from the columns (bus tags are columnar-only metadata and
    are not written).
    """
    n = len(ct)
    base = int(ct.payload_offsets[0]) if n else 0
    hex_all = ct.payload_bytes().tobytes().hex().upper()
    offsets = ((ct.payload_offsets - base) * 2).tolist()
    dlc = ct.dlc.tolist()
    with open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(HEADER)
        writer.writerows(
            (t, f"{i:X}", int(e), d, hex_all[offsets[k]:offsets[k + 1]], s, int(a))
            for k, (t, i, e, d, s, a) in enumerate(
                zip(
                    ct.timestamp_us.tolist(),
                    ct.can_id.tolist(),
                    ct.extended.tolist(),
                    dlc,
                    ct.sources(),
                    ct.is_attack.tolist(),
                )
            )
        )
