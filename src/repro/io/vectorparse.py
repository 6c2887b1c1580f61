"""Vectorised byte-level parsing for the columnar log readers.

The record readers pay ~5 µs of interpreter work per frame (regex or
csv row, field conversions, a ``TraceRecord``, a monotonicity check).
The columnar readers instead load the file once as a ``uint8`` buffer
and parse *columns, not lines*: delimiter positions come from
``np.flatnonzero`` scans, numeric fields from a handful of masked
gather passes (one per digit position), payload hex from a single
gather plus a nibble lookup, and source names are interned by grouping
spans under a composite key and then *verifying the grouping exactly*
with vectorised character compares.  Nothing is trusted without a
check: any structural deviation — comment lines, unusual spacing,
quoting, non-digit bytes, ragged fields — makes the parser return
``None``, and the caller re-parses that block with the format's
reference record parser, which loads it or names the offending line.

Both parsers return plain column dicts (``ColumnTrace`` keyword
arguments) so ``repro.io.log`` / ``repro.io.csvlog`` own the trace
construction and the public API.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.can.constants import MAX_BASE_ID, SECOND_US

__all__ = ["parse_candump_bytes", "parse_csv_bytes"]

_NL, _CR, _SP, _COMMA = 10, 13, 32, 44
_LPAREN, _RPAREN, _DOT, _HASH, _SEMI = 40, 41, 46, 35, 59

#: Hex/decimal digit value per byte, -1 for non-digits.
_HEXVAL = np.full(256, -1, dtype=np.int64)
_DIGVAL = np.full(256, -1, dtype=np.int64)
for _i, _c in enumerate(b"0123456789"):
    _HEXVAL[_c] = _DIGVAL[_c] = _i
for _i, _c in enumerate(b"abcdef"):
    _HEXVAL[_c] = 10 + _i
    _HEXVAL[_c - 32] = 10 + _i  # A-F
del _i, _c


def _line_bounds(buf: np.ndarray):
    """Per-line ``(starts, ends, newlines)`` index arrays.

    ``ends`` excludes the newline and a preceding ``\\r``; a missing
    final newline gets a virtual one at ``buf.size``.
    """
    nl = np.flatnonzero(buf == _NL)
    if nl.size == 0 or int(nl[-1]) != buf.size - 1:
        nl = np.append(nl, buf.size)
    starts = np.empty(nl.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = nl[:-1] + 1
    ends = nl - (buf[np.minimum(nl - 1, buf.size - 1)] == _CR)
    return starts, ends, nl


def _columns_on_lines(marks: np.ndarray, n: int, per_line: int, ls, ends):
    """Reshape global delimiter positions into per-line columns.

    Returns the ``(n, per_line)`` matrix, or None unless there are
    exactly ``per_line`` marks on every line, in order.
    """
    if marks.size != per_line * n:
        return None
    m = marks.reshape(n, per_line)
    # marks are globally sorted, so each row sitting inside its own
    # line's [start, end) bounds implies the per-line counts match too.
    if np.any(m[:, 0] < ls) or np.any(m[:, -1] >= ends):
        return None
    return m


def _parse_uint_var(buf, lo, width, max_width) -> Optional[np.ndarray]:
    """Variable-width unsigned decimal fields, one gather per digit."""
    wmax = int(width.max()) if width.size else 0
    if wmax > max_width or (width.size and int(width.min()) < 1):
        return None
    val = np.zeros(lo.size, dtype=np.int64)
    limit = buf.size - 1
    for k in range(wmax):
        m = width > k
        d = _DIGVAL[buf[np.minimum(lo + k, limit)]]
        if np.any(m & (d < 0)):
            return None
        val = np.where(m, val * 10 + d, val)
    return val


def _parse_uint_fixed(buf, lo, width: int) -> Optional[np.ndarray]:
    """Fixed-width unsigned decimal fields (no masking needed)."""
    val = np.zeros(lo.size, dtype=np.int64)
    for k in range(width):
        d = _DIGVAL[buf[lo + k]]
        if int(d.min(initial=0)) < 0:
            return None
        val = val * 10 + d
    return val


def _parse_hex_var(buf, lo, width, max_width) -> Optional[np.ndarray]:
    """Variable-width hex fields, one gather per nibble."""
    wmax = int(width.max()) if width.size else 0
    if wmax > max_width or (width.size and int(width.min()) < 1):
        return None
    val = np.zeros(lo.size, dtype=np.int64)
    limit = buf.size - 1
    for k in range(wmax):
        m = width > k
        d = _HEXVAL[buf[np.minimum(lo + k, limit)]]
        if np.any(m & (d < 0)):
            return None
        val = np.where(m, val * 16 + d, val)
    return val


def _gather_spans(buf, starts, lengths) -> np.ndarray:
    """Concatenate the byte spans ``buf[starts[i]:starts[i]+lengths[i]]``."""
    total = int(lengths.sum())
    if not total:
        return np.empty(0, dtype=buf.dtype)
    out_offsets = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_offsets[1:])
    indices = np.repeat(starts - out_offsets, lengths) + np.arange(
        total, dtype=np.int64
    )
    return buf[indices]


def _decode_hex_spans(buf, lo, lengths) -> Optional[np.ndarray]:
    """Hex payload spans -> one flat ``uint8`` byte buffer."""
    if lengths.size and (int(lengths.min()) < 0 or np.any(lengths & 1)):
        return None
    chars = _gather_spans(buf, lo, lengths)
    nibbles = _HEXVAL[chars]
    if nibbles.size and int(nibbles.min()) < 0:
        return None
    return (nibbles[0::2] * 16 + nibbles[1::2]).astype(np.uint8)


def _verify_literal(buf, positions, literal: bytes) -> bool:
    """Check ``buf[p:p+len(literal)] == literal`` for every position."""
    return all(
        bool(np.all(buf[positions + k] == c)) for k, c in enumerate(literal)
    )


def _intern_spans(buf, lo, hi, max_width: int = 64):
    """Intern per-line byte spans into ``(codes, table)``, vectorised.

    Spans are grouped under a composite key (width, first, last and a
    position-weighted byte sum — plain sums collide on anagram-like
    names such as ``ECU_DDM``/``ECU_ECM``), then the grouping is
    *proved* by comparing every span to its group representative with
    one vectorised pass per character position.  Returns None when
    spans are too wide or a key collision survives (caller falls back).
    """
    width = (hi - lo).astype(np.int64)
    n = width.size
    if n == 0:
        return np.zeros(0, dtype=np.int32), ("",)
    if int(width.min()) < 0:
        return None
    wmax = int(width.max())
    if wmax > max_width:
        return None
    if wmax == 0:
        return np.zeros(n, dtype=np.int32), ("",)
    empty = width == 0
    if bool(empty.any()):
        # Intern the non-empty spans, reserve code 0 for "".
        sub = _intern_spans(buf[:], lo[~empty], hi[~empty], max_width)
        if sub is None:
            return None
        codes = np.zeros(n, dtype=np.int32)
        codes[~empty] = sub[0] + 1
        return codes, ("",) + sub[1]
    chars = _gather_spans(buf, lo, width).astype(np.int64)
    ends = np.cumsum(width)
    starts = ends - width
    pos = np.arange(chars.size, dtype=np.int64) - np.repeat(starts, width)
    sums = np.add.reduceat(chars, starts)
    wsums = np.add.reduceat(chars * (pos + 1), starts)
    key = (
        (((width << 8) | chars[starts]) << 8 | chars[ends - 1]) << 21
    ) | wsums  # wsum <= 255 * 64*65/2 < 2^21
    uniq, index, inverse = np.unique(key, return_index=True, return_inverse=True)
    charmat = np.zeros((uniq.size, wmax), dtype=np.int64)
    table = []
    for j, r in enumerate(index):
        w = int(width[r])
        span = chars[int(starts[r]) : int(starts[r]) + w]
        charmat[j, :w] = span
        try:
            table.append(span.astype(np.uint8).tobytes().decode("ascii"))
        except UnicodeDecodeError:
            return None  # fallback re-reads in text mode and diagnoses
    # Exact verification of the grouping (guards against collisions).
    actual = np.zeros((n, wmax), dtype=np.int64)
    actual[np.repeat(np.arange(n), width), pos] = chars
    if not np.array_equal(actual, charmat[inverse]):
        return None
    return inverse.astype(np.int32), tuple(table)


# ----------------------------------------------------------------------
# candump
# ----------------------------------------------------------------------

def parse_candump_bytes(buf: np.ndarray) -> Optional[dict]:
    """Parse a writer-shaped candump buffer into column arrays.

    Handles both line shapes the format allows — with the ground-truth
    ``; src=... attack=...`` comment (five spaces per line) and without
    (two spaces) — but not a mix; anything else returns None for the
    record-parser fallback.  Timestamp monotonicity is *not* checked here
    (the trace constructor validates it with a proper error).
    """
    if buf.size == 0:
        return {}
    ls, ends, nl = _line_bounds(buf)
    n = ls.size
    if not np.all(buf[np.minimum(ls, buf.size - 1)] == _LPAREN):
        return None
    sp = np.flatnonzero(buf == _SP)
    commented = sp.size == 5 * n
    sp2 = _columns_on_lines(sp, n, 5 if commented else 2, ls, ends)
    if sp2 is None:
        return None
    dots = np.flatnonzero(buf == _DOT)
    if dots.size != n:
        return None
    rparen = sp2[:, 0] - 1
    if not np.all(buf[rparen] == _RPAREN) or not np.array_equal(rparen, dots + 7):
        return None  # stamp must end ".UUUUUU)"
    secs = _parse_uint_var(buf, ls + 1, dots - ls - 1, 13)
    usecs = _parse_uint_fixed(buf, dots + 1, 6)
    if secs is None or usecs is None:
        return None
    if int((sp2[:, 1] - sp2[:, 0]).min()) < 2:  # interface name nonempty
        return None
    hashes = np.flatnonzero(buf == _HASH)
    if hashes.size != n:
        return None
    id_lo = sp2[:, 1] + 1
    id_width = hashes - id_lo
    if id_width.size and (int(id_width.min()) < 3 or int(id_width.max()) > 8):
        return None
    can_id = _parse_hex_var(buf, id_lo, id_width, 8)
    if can_id is None:
        return None
    data_hi = sp2[:, 2] if commented else ends
    payload = _decode_hex_spans(buf, hashes + 1, data_hi - hashes - 1)
    if payload is None:
        return None
    if commented:
        if not np.all(buf[sp2[:, 2] + 1] == _SEMI):
            return None
        if not np.array_equal(sp2[:, 3], sp2[:, 2] + 2):
            return None
        if not _verify_literal(buf, sp2[:, 3] + 1, b"src="):
            return None
        name_lo, name_hi = sp2[:, 3] + 5, sp2[:, 4]
        if int((name_hi - name_lo).min()) < 1:
            return None
        if not np.array_equal(ends - sp2[:, 4] - 1, np.full(n, 8, np.int64)):
            return None
        if not _verify_literal(buf, sp2[:, 4] + 1, b"attack="):
            return None
        flag = buf[ends - 1]
        if not np.all((flag == ord("0")) | (flag == ord("1"))):
            return None
        interned = _intern_spans(buf, name_lo, name_hi)
        if interned is None:
            return None
        source_code, raw_table = interned
        source_table = tuple("" if s == "-" else s for s in raw_table)
        is_attack = flag == ord("1")
    else:
        source_code = np.zeros(n, dtype=np.int32)
        source_table = ("",)
        is_attack = np.zeros(n, dtype=bool)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum((data_hi - hashes - 1) >> 1, out=offsets[1:])
    return dict(
        timestamp_us=secs * SECOND_US + usecs,
        can_id=can_id,
        payload=payload,
        payload_offsets=offsets,
        extended=(id_width > 3) | (can_id > MAX_BASE_ID),
        is_attack=is_attack,
        source_code=source_code,
        source_table=source_table,
    )


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

def parse_csv_bytes(buf: np.ndarray, header: bytes) -> Optional[dict]:
    """Parse a writer-shaped CSV trace buffer into column arrays.

    ``header`` is the expected first line (without line terminator).
    Quoted fields (any ``\"`` in the buffer) and ragged rows return
    None for the record-parser fallback.
    """
    if buf.size == 0:
        return None  # a valid CSV trace has at least the header
    if bool(np.any(buf == ord('"'))):
        return None
    ls, ends, nl = _line_bounds(buf)
    if buf[ls[0] : ends[0]].tobytes() != header:
        return None
    # Drop the header line; the last line may be a trailing blank.
    ls, ends, nl = ls[1:], ends[1:], nl[1:]
    if ls.size and ls[-1] == ends[-1]:
        ls, ends, nl = ls[:-1], ends[:-1], nl[:-1]
    n = ls.size
    if n == 0:
        return {}
    n_commas = header.count(b",")
    commas = np.flatnonzero(buf == _COMMA)
    commas = commas[commas >= ls[0]]  # exclude the header's commas
    cm = _columns_on_lines(commas, n, n_commas, ls, ends)
    if cm is None:
        return None
    timestamp_us = _parse_uint_var(buf, ls, cm[:, 0] - ls, 18)
    can_id = _parse_hex_var(buf, cm[:, 0] + 1, cm[:, 1] - cm[:, 0] - 1, 8)
    if timestamp_us is None or can_id is None:
        return None
    ext_width = cm[:, 2] - cm[:, 1] - 1
    att_width = ends - cm[:, 5] - 1
    if np.any(ext_width != 1) or np.any(att_width != 1):
        return None
    ext_flag = buf[cm[:, 1] + 1]
    att_flag = buf[cm[:, 5] + 1]
    zero, one = ord("0"), ord("1")
    if not np.all(((ext_flag == zero) | (ext_flag == one))):
        return None
    if not np.all(((att_flag == zero) | (att_flag == one))):
        return None
    dlc = _parse_uint_var(buf, cm[:, 2] + 1, cm[:, 3] - cm[:, 2] - 1, 2)
    if dlc is None:
        return None
    data_len = cm[:, 4] - cm[:, 3] - 1
    payload = _decode_hex_spans(buf, cm[:, 3] + 1, data_len)
    if payload is None or not np.array_equal(data_len >> 1, dlc):
        return None
    interned = _intern_spans(buf, cm[:, 4] + 1, cm[:, 5])
    if interned is None:
        return None
    source_code, source_table = interned
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(data_len >> 1, out=offsets[1:])
    return dict(
        timestamp_us=timestamp_us,
        can_id=can_id,
        payload=payload,
        payload_offsets=offsets,
        extended=ext_flag == one,
        is_attack=att_flag == one,
        source_code=source_code,
        source_table=source_table,
    )
