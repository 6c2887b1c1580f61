"""candump-compatible text logs.

Format (one frame per line, as produced by ``candump -L``)::

    (1620000123.456789) can0 1A4#DEADBEEF

The fractional seconds carry microsecond resolution, which matches the
simulator clock exactly.  Two optional trailing comment fields carry the
simulator's ground truth so traces can round-trip losslessly::

    (0.012345) can0 1A4#DEADBEEF ; src=ECU_Powertrain attack=0

Files named ``*.gz`` are read and written gzip-compressed,
transparently: every reader produces results identical to reading the
uncompressed file.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.can.constants import MAX_BASE_ID, SECOND_US
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
from repro.io.vectorparse import parse_candump_bytes

_LINE_RE = re.compile(
    r"^\((?P<secs>\d+)\.(?P<usecs>\d{6})\)\s+"
    r"(?P<iface>\S+)\s+"
    r"(?P<id>[0-9A-Fa-f]{3,8})#(?P<data>(?:[0-9A-Fa-f]{2})*)"
    r"(?:\s*;\s*src=(?P<src>\S+)\s+attack=(?P<attack>[01]))?\s*$"
)


def format_record(record: TraceRecord, iface: str = "can0") -> str:
    """Render one record as a candump line (with ground-truth comment)."""
    secs, usecs = divmod(record.timestamp_us, SECOND_US)
    width = 8 if record.extended else 3
    data = record.data.hex().upper()
    src = record.source or "-"
    return (
        f"({secs}.{usecs:06d}) {iface} {record.can_id:0{width}X}#{data}"
        f" ; src={src} attack={1 if record.is_attack else 0}"
    )


def parse_line(line: str) -> TraceRecord:
    """Parse one candump line into a :class:`TraceRecord`.

    Lines without the ground-truth comment get ``source=''`` and
    ``is_attack=False``.
    """
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise TraceFormatError(f"unparseable candump line: {line!r}")
    timestamp_us = int(match["secs"]) * SECOND_US + int(match["usecs"])
    id_text = match["id"]
    can_id = int(id_text, 16)
    extended = len(id_text) > 3 or can_id > MAX_BASE_ID
    source = match["src"] if match["src"] not in (None, "-") else ""
    is_attack = match["attack"] == "1"
    return TraceRecord(
        timestamp_us=timestamp_us,
        can_id=can_id,
        data=bytes.fromhex(match["data"]),
        extended=extended,
        source=source,
        is_attack=is_attack,
    )


def write_candump(
    trace: Iterable[TraceRecord],
    path: Union[str, Path],
    iface: str = "can0",
) -> None:
    """Write a trace to ``path`` in candump format (gzipped for ``.gz``)."""
    with open_text(path, "w") as handle:
        for record in trace:
            handle.write(format_record(record, iface))
            handle.write("\n")


def _frame_lines(lines: Iterable[str], lineno_base: int = 0):
    """``(lineno, line)`` for each frame line; blank and ``#`` lines skip."""
    for lineno, line in enumerate(lines, start=lineno_base + 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def read_candump(path: Union[str, Path]) -> Trace:
    """Read a candump file back into a :class:`Trace`.

    Blank lines and lines starting with ``#`` are skipped.
    """
    with open_text(path, "r") as handle:
        return collect_records(_frame_lines(handle), parse_line, path)


# ----------------------------------------------------------------------
# Columnar-native path (no per-frame TraceRecord allocation)
# ----------------------------------------------------------------------

def _candump_block_parts(
    path: Union[str, Path], blocks: Iterable[Tuple[bytes, int]]
) -> Iterator[ColumnTrace]:
    """Parse ``(data, lineno_base)`` blocks of whole lines into parts.

    Each block goes through the vectorised
    :func:`repro.io.vectorparse.parse_candump_bytes`.  A block it
    rejects (comments, unusual spacing, malformed or out-of-order
    frames) re-parses with :func:`read_candump`'s own line loop, in
    text mode exactly as that reader sees it, so the block loads or
    fails with ``path:lineno`` precisely as the whole file would.
    """
    last_end: Optional[int] = None
    for data, lineno_base in blocks:
        part = vector_part(
            parse_candump_bytes(np.frombuffer(data, dtype=np.uint8)), last_end
        )
        if part is None:
            lines = io.TextIOWrapper(
                io.BytesIO(data), encoding="ascii", newline=""
            )
            part = ColumnTrace.from_trace(
                collect_records(
                    _frame_lines(lines, lineno_base), parse_line, path, last_end
                )
            )
        if len(part):
            last_end = part.end_us
            yield part


def iter_candump_columns(
    path: Union[str, Path],
    chunk_frames: int,
    *,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> Iterator[ColumnTrace]:
    """Stream a candump file as :class:`ColumnTrace` chunks.

    Yields consecutive chunks of exactly ``chunk_frames`` frames (the
    last may be short), so a capture larger than RAM streams through in
    bounded memory.  The file reads as ``block_bytes``-sized byte
    blocks of whole lines (gzip decompresses block-wise too) through
    the same block driver as :func:`read_candump_columns`, so the two
    readers differ only in where their bytes come from.  Chunks split
    only on frame boundaries; timestamp monotonicity is enforced across
    block and chunk boundaries too.
    """
    if chunk_frames <= 0:
        raise TraceFormatError(
            f"chunk_frames must be positive, got {chunk_frames}"
        )
    return rechunk_parts(
        _candump_block_parts(path, iter_line_blocks(path, block_bytes)),
        chunk_frames,
    )


def read_candump_columns(path: Union[str, Path]) -> ColumnTrace:
    """Read a candump file straight into a :class:`ColumnTrace`.

    Equal to ``read_candump(path).to_columns()``, ground-truth comments
    included, without a :class:`TraceRecord` per frame: the whole file
    (decompressed first for ``.gz``) is one block for the block driver
    :func:`iter_candump_columns` uses, so writer-shaped logs parse in
    vectorised passes and anything else takes the record parser.  An
    order of magnitude faster than loading via records (the archive
    throughput experiment measures it).
    """
    data = read_bytes(path)
    return join_parts(_candump_block_parts(path, [(data, 0)] if data else []))


#: Rows rendered per strip by the columnar text writers.  Strip-wise
#: rendering keeps peak memory at O(strip) — a multi-hundred-MB capture
#: (the ooc_smoke ingest experiment writes one) never holds the whole
#: rendered text in RAM.
_WRITE_STRIP_ROWS = 262_144


def write_candump_columns(
    ct: ColumnTrace, path: Union[str, Path], iface: str = "can0"
) -> None:
    """Write a :class:`ColumnTrace` in candump format.

    Byte-identical to ``write_candump(ct.to_trace(), path)`` but renders
    straight from the columns, one :data:`_WRITE_STRIP_ROWS` strip at a
    time (bounded memory for arbitrarily large captures).  Bus tags are
    columnar-only metadata and are not written (see ``ARCHITECTURE.md``).
    """
    with open_text(path, "w") as handle:
        for strip_lo in range(0, len(ct), _WRITE_STRIP_ROWS):
            strip = ct.slice(strip_lo, strip_lo + _WRITE_STRIP_ROWS)
            n = len(strip)
            base = int(strip.payload_offsets[0]) if n else 0
            hex_all = strip.payload_bytes().tobytes().hex().upper()
            offsets = ((strip.payload_offsets - base) * 2).tolist()
            times = strip.timestamp_us.tolist()
            ids = strip.can_id.tolist()
            ext = strip.extended.tolist()
            att = strip.is_attack.tolist()
            sources = strip.sources()
            lines = []
            for i in range(n):
                secs, usecs = divmod(times[i], SECOND_US)
                width = 8 if ext[i] else 3
                lines.append(
                    f"({secs}.{usecs:06d}) {iface} {ids[i]:0{width}X}"
                    f"#{hex_all[offsets[i]:offsets[i + 1]]}"
                    f" ; src={sources[i] or '-'} attack={1 if att[i] else 0}\n"
                )
            handle.write("".join(lines))
