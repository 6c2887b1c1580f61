"""Block-streaming ingestion parity.

The chunked text readers re-parse fixed-size byte *blocks* with the
vectorised parsers instead of walking lines; the contract is that no
block boundary is observable: for every block size — including sizes
that cut lines mid-token, mid-CRLF, inside comments, and at an EOF
without a trailing newline — the chunk stream is bit-identical to the
whole-file readers, and every chunk except the last holds exactly
``chunk_frames`` frames.
"""

import gzip

import numpy as np
import pytest

from repro.exceptions import TraceFormatError
from repro.io import (
    iter_candump_columns,
    iter_csv_columns,
    read_candump,
    read_candump_columns,
    read_csv,
    read_csv_columns,
    write_candump_columns,
    write_csv_columns,
)
from repro.io.columnar import ColumnTrace
from repro.vehicle.traffic import generate_drive_columns

#: Block sizes chosen to land boundaries everywhere: single bytes,
#: mid-timestamp, mid-payload, mid-comment, and "bigger than the file".
BLOCK_SIZES = [1, 3, 17, 256, 1 << 20]

_CSV_HEADER = b"time_us,can_id_hex,extended,dlc,data_hex,source,is_attack\n"


@pytest.fixture(scope="module")
def capture(catalog):
    """A drive capture with payloads, sources and attack labels."""
    ct = generate_drive_columns(3.0, scenario="city", seed=23, catalog=catalog)
    assert ct.is_attack.any() or True  # labels may be clean; columns exist
    return ct


def _merge(chunks):
    chunks = list(chunks)
    if not chunks:
        return ColumnTrace(np.empty(0, np.int64), np.empty(0, np.int64))
    return ColumnTrace.merge(*chunks)


class TestCandumpBlockParity:
    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_block_edges_are_invisible(
        self, capture, tmp_path, block_bytes, gz
    ):
        path = tmp_path / ("c.log.gz" if gz else "c.log")
        write_candump_columns(capture, path)
        whole = read_candump_columns(path)
        merged = _merge(
            iter_candump_columns(path, 997, block_bytes=block_bytes)
        )
        assert merged == whole
        assert whole == read_candump(path).to_columns()

    @pytest.mark.parametrize("block_bytes", [7, 64])
    def test_weird_text_shapes(self, tmp_path, block_bytes):
        """Comments, CRLF, blank lines, and EOF without a newline all
        survive arbitrary block cuts."""
        path = tmp_path / "w.log"
        path.write_bytes(
            b"# leading comment that is longer than a tiny block\n"
            b"(1.000000) can0 1A4#1122 ; src=a attack=0\r\n"
            b"\n"
            b"(1.000100) can0 0C1#DEAD ; src=b attack=1\n"
            b"   \n"
            b"# interior comment\r\n"
            b"(1.000200) can0 7FF#\n"
            b"(1.000300) can1 123#00FF ; src=a attack=0"  # no newline
        )
        whole = read_candump_columns(path)
        assert len(whole) == 4
        assert whole.is_attack.sum() == 1
        assert whole == read_candump(path).to_columns()
        for chunk_frames in (1, 2, 100):
            merged = _merge(
                iter_candump_columns(
                    path, chunk_frames, block_bytes=block_bytes
                )
            )
            assert merged == whole

    def test_only_the_interior_block_falls_back(
        self, capture, tmp_path, monkeypatch
    ):
        """A comment in the second block sends that block, and only
        that block, to the record parser; a malformed line there is
        reported with its line number in the file."""
        import repro.io.log as log

        head = tmp_path / "head.log"
        write_candump_columns(capture.slice(0, 40), head)
        lines = head.read_text().splitlines(keepends=True)
        block_bytes = sum(len(line) for line in lines[:20])
        text = "".join(lines[:25] + ["# interior comment\n"] + lines[25:])
        path = tmp_path / "interior.log"
        path.write_text(text)

        reference = read_candump(path).to_columns()
        parsed = []
        real_parse_line = log.parse_line

        def spy(line):
            parsed.append(line)
            return real_parse_line(line)

        monkeypatch.setattr(log, "parse_line", spy)
        merged = _merge(
            iter_candump_columns(path, 7, block_bytes=block_bytes)
        )
        assert len(merged) == 40
        assert merged == reference
        assert 0 < len(parsed) < 40

        lines.insert(30, "(1.000000) can0 not-a-frame\n")
        bad = tmp_path / "bad.log"
        bad.write_text("".join(lines[:25] + ["# c\n"] + lines[25:]))
        with pytest.raises(TraceFormatError, match=r"bad\.log:32:"):
            list(iter_candump_columns(bad, 7, block_bytes=block_bytes))

    def test_exact_chunk_sizes(self, capture, tmp_path):
        path = tmp_path / "c.log"
        write_candump_columns(capture, path)
        chunks = list(iter_candump_columns(path, 333, block_bytes=4096))
        assert all(len(c) == 333 for c in chunks[:-1])
        assert 0 < len(chunks[-1]) <= 333
        assert sum(len(c) for c in chunks) == len(capture)

    def test_ground_truth_columns_round_trip(self, tmp_path):
        ct = ColumnTrace(
            np.array([1_000, 2_000, 3_000], np.int64),
            np.array([0x1A4, 0x0C1, 0x1A4], np.int64),
            is_attack=np.array([False, True, False]),
            source_code=np.array([1, 2, 1], np.int32),
            source_table=("", "ecu_a", "spoofer"),
        )
        path = tmp_path / "g.log.gz"
        write_candump_columns(ct, path)
        merged = _merge(iter_candump_columns(path, 2, block_bytes=5))
        assert merged == ct

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_sizes(self, tmp_path, bad):
        path = tmp_path / "c.log"
        path.write_text("(1.000000) can0 1A4#\n")
        with pytest.raises(TraceFormatError, match="positive"):
            list(iter_candump_columns(path, bad))
        with pytest.raises(TraceFormatError, match="positive"):
            list(iter_candump_columns(path, 10, block_bytes=bad))

    @pytest.mark.parametrize("block_bytes", [8, 1 << 20])
    def test_backwards_timestamp_names_the_line(self, tmp_path, block_bytes):
        """The vectorised path must hand badly-ordered blocks back to
        the per-line parser so the error carries the line number —
        including when the violation spans a block boundary."""
        path = tmp_path / "m.log"
        path.write_text(
            "(0.000300) can0 1A4#\n"
            "(0.000100) can0 1A4#\n"
        )
        with pytest.raises(TraceFormatError, match="m.log:2"):
            list(iter_candump_columns(path, 10, block_bytes=block_bytes))


class TestCsvBlockParity:
    @pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_block_edges_are_invisible(
        self, capture, tmp_path, block_bytes, gz
    ):
        path = tmp_path / ("c.csv.gz" if gz else "c.csv")
        write_csv_columns(capture, path)
        whole = read_csv_columns(path)
        merged = _merge(iter_csv_columns(path, 991, block_bytes=block_bytes))
        assert merged == whole
        assert whole == read_csv(path).to_columns()

    @pytest.mark.parametrize("block_bytes", [5, 64])
    def test_quoted_field_hands_over_to_csv_module(
        self, tmp_path, block_bytes
    ):
        """A quote anywhere in a block (even one the fast path would
        otherwise digest) must divert to the csv-module reader — fields
        may span physical lines — without disturbing rows the fast path
        already consumed."""
        path = tmp_path / "q.csv"
        path.write_text(
            "time_us,can_id_hex,extended,dlc,data_hex,source,is_attack\n"
            "1000,1A4,0,2,1122,ecu_a,0\n"
            "2000,0C1,0,0,,ecu_b,1\n"
            '3000,1A4,0,1,33,"quoted,source",0\n'
            "4000,7FF,1,0,,ecu_a,0\n"
        )
        whole = read_csv_columns(path)
        assert whole.sources().count("quoted,source") == 1
        for chunk_frames in (1, 3, 100):
            merged = _merge(
                iter_csv_columns(path, chunk_frames, block_bytes=block_bytes)
            )
            assert merged == whole

    @pytest.mark.parametrize(
        "text, frames",
        [
            (b"", None),
            (_CSV_HEADER, 0),
            (
                _CSV_HEADER + b"1000,1A4,0,2,1122,ecu_a,0\r\n\n"
                b"2000,0C1,0,2,11 22,ecu_b,1\n3000,7FF,1,0,,ecu_a,0",
                3,
            ),
        ],
        ids=["empty", "header-only", "crlf-blank-spaced-hex"],
    )
    @pytest.mark.parametrize("block_bytes", [5, 64])
    def test_weird_text_shapes(self, tmp_path, text, frames, block_bytes):
        """Both columnar readers load exactly what the record reader
        loads, and reject exactly what it rejects: a zero-byte file has
        no header (``frames`` None), a header-only file is empty."""
        path = tmp_path / "w.csv"
        path.write_bytes(text)
        if frames is None:
            with pytest.raises(TraceFormatError, match="header None") as ref:
                read_csv(path)
            with pytest.raises(TraceFormatError) as whole:
                read_csv_columns(path)
            with pytest.raises(TraceFormatError) as streamed:
                list(iter_csv_columns(path, 2, block_bytes=block_bytes))
            assert str(whole.value) == str(streamed.value) == str(ref.value)
            return
        reference = read_csv(path).to_columns()
        assert len(reference) == frames
        assert read_csv_columns(path) == reference
        assert _merge(
            iter_csv_columns(path, 2, block_bytes=block_bytes)
        ) == reference

    def test_exact_chunk_sizes(self, capture, tmp_path):
        path = tmp_path / "c.csv"
        write_csv_columns(capture, path)
        chunks = list(iter_csv_columns(path, 250, block_bytes=4096))
        assert all(len(c) == 250 for c in chunks[:-1])
        assert sum(len(c) for c in chunks) == len(capture)

    def test_ground_truth_columns_round_trip(self, tmp_path):
        ct = ColumnTrace(
            np.array([1_000, 2_000, 3_000], np.int64),
            np.array([0x1A4, 0x0C1, 0x1A4], np.int64),
            is_attack=np.array([True, False, True]),
            source_code=np.array([1, 2, 1], np.int32),
            source_table=("", "a", "b"),
        )
        path = tmp_path / "g.csv.gz"
        write_csv_columns(ct, path)
        merged = _merge(iter_csv_columns(path, 2, block_bytes=9))
        assert merged == ct

    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_nonpositive_sizes(self, tmp_path, bad):
        path = tmp_path / "c.csv"
        path.write_text(
            "time_us,can_id_hex,extended,dlc,data_hex,source,is_attack\n"
        )
        with pytest.raises(TraceFormatError, match="positive"):
            list(iter_csv_columns(path, bad))
        with pytest.raises(TraceFormatError, match="positive"):
            list(iter_csv_columns(path, 10, block_bytes=bad))

    def test_backwards_timestamp_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "time_us,can_id_hex,extended,dlc,data_hex,source,is_attack\n"
            "3000,1A4,0,0,,a,0\n"
            "1000,1A4,0,0,,a,0\n"
        )
        with pytest.raises(TraceFormatError, match="m.csv:3"):
            list(iter_csv_columns(path, 10, block_bytes=16))


class TestGzipBlockDecompression:
    def test_gzip_blocks_match_plain_blocks(self, capture, tmp_path):
        """Gzip decompression is block-transparent: an externally
        gzipped file parses chunk-for-chunk like its plain twin."""
        plain = tmp_path / "d.log"
        write_candump_columns(capture, plain)
        gzipped = tmp_path / "d.log.gz"
        gzipped.write_bytes(gzip.compress(plain.read_bytes()))
        assert list(iter_candump_columns(gzipped, 777)) == list(
            iter_candump_columns(plain, 777)
        )
