"""Transparent gzip handling shared by the log readers/writers.

Fleet archives keep months of captures; candump logs compress ~10x, so
the IO layer reads and writes ``*.gz`` twins of both text formats
transparently (ROADMAP "richer archive formats").  Compression is a
property of the *file name* — ``drive.log.gz`` is a gzipped candump
log, ``drive.csv.gz`` a gzipped CSV trace — and every reader produces
results identical to reading the uncompressed file.

Besides whole-file text/byte access this module provides the block
layer the streaming vectorised readers are built on:
:func:`iter_line_blocks` yields fixed-size byte blocks of *whole*
lines (a partial tail line is carried across block edges), so a
larger-than-RAM log — plain or gzipped — parses in O(block) memory.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Iterator, Tuple, Union

from repro.exceptions import TraceFormatError

#: Byte-block size for the streaming readers: large enough to amortise
#: the vectorised parser's per-call numpy overhead, small enough that a
#: block's parse temporaries stay a rounding error next to the chunk
#: arrays the caller accumulates.  Tests shrink it to force block edges
#: into interesting places (mid-line, mid-CRLF, inside comments).
DEFAULT_BLOCK_BYTES = 8 * 1024 * 1024

#: Compression level for ``.gz`` writers.  Level 6 is zlib's default
#: trade-off; the previous implicit level 9 costs ~2x the CPU for a few
#: percent of size, which matters when the fleet layer writes
#: multi-hundred-MB captures.
GZIP_WRITE_LEVEL = 6


def is_gzip_path(path: Union[str, Path]) -> bool:
    """True when the file name marks gzip compression (``.gz``)."""
    return Path(path).suffix.lower() == ".gz"


def open_text(path: Union[str, Path], mode: str):
    """Open a log file for text IO, decompressing/compressing ``.gz``.

    ``mode`` is ``"r"`` or ``"w"``; encoding is always ASCII (both log
    formats are) and newline handling matches the plain ``open`` call
    the CSV writer needs (``newline=""``).
    """
    if is_gzip_path(path):
        if "w" in mode:
            return gzip.open(
                path,
                mode + "t",
                compresslevel=GZIP_WRITE_LEVEL,
                encoding="ascii",
                newline="",
            )
        return gzip.open(path, mode + "t", encoding="ascii", newline="")
    return open(path, mode, encoding="ascii", newline="")


def open_binary(path: Union[str, Path]):
    """Open a log file for binary reading, decompressing ``.gz``.

    Unlike :func:`read_bytes` this never materialises the file: the
    returned handle decompresses on demand, so callers reading
    ``block_bytes`` at a time hold O(block) memory no matter how large
    the decompressed capture is.
    """
    if is_gzip_path(path):
        return gzip.open(path, "rb")
    return open(path, "rb")


def iter_line_blocks(
    path: Union[str, Path], block_bytes: int = DEFAULT_BLOCK_BYTES
) -> Iterator[Tuple[bytes, int]]:
    """Stream a text log as byte blocks of whole lines.

    Yields ``(data, lineno_base)`` pairs where ``data`` contains only
    complete ``b"\\n"``-terminated lines (plus, at EOF, an unterminated
    final line) and ``lineno_base`` is the number of lines already
    yielded — the record-parser fallback adds it to its in-block
    position to report exact file line numbers.  The partial line at each block
    edge is carried into the next block, so edges may land anywhere —
    mid-line, mid-CRLF, inside a comment — without changing what the
    parsers see.  ``.gz`` inputs decompress one block at a time.
    """
    if block_bytes <= 0:
        raise TraceFormatError(
            f"block_bytes must be positive, got {block_bytes}"
        )
    tail = b""
    lineno_base = 0
    with open_binary(path) as handle:
        while True:
            block = handle.read(block_bytes)
            if not block:
                break
            data = tail + block
            cut = data.rfind(b"\n") + 1
            if not cut:
                tail = data
                continue
            tail = data[cut:]
            data = data[:cut]
            yield data, lineno_base
            lineno_base += data.count(b"\n")
    if tail:
        yield tail, lineno_base


def read_bytes(path: Union[str, Path]) -> bytes:
    """Read a whole log file as bytes, decompressing ``.gz``.

    The vectorised parsers consume one flat byte buffer; gzipped
    captures simply decompress into that buffer first.
    """
    if is_gzip_path(path):
        with gzip.open(path, "rb") as handle:
            return handle.read()
    with open(path, "rb") as handle:
        return handle.read()
