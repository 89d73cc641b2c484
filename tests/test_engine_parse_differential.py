"""Differential tests: the byte-level chunk parser against the row readers.

Seeded files mix canonical rows with every input class the parser must
read exactly as text-mode reading plus the row parsers do: universal
newlines, a BOM, blank and whitespace-only lines, headers, a missing
final newline, integer syntax only ``int()`` accepts, integers at and
past int64, non-ASCII volume ids, opcode spellings, wrong field counts,
and gzip.  ``iter_chunks`` — whole file and split sub-units, at several
chunk sizes and every error policy — must give the row readers' values
and per-volume order, strict errors, surviving rows, dropped lines and
``parse.lines`` / ``parse.bytes``.
"""

from __future__ import annotations

import gzip
import os
import tracemalloc

import numpy as np
import pytest

from repro.engine.chunks import _BadBatch, _field_bounds, iter_chunks
from repro.engine.units import _split_cold
from repro.obs import metrics
from repro.resilience import ParseErrors
from repro.trace.reader import (
    TraceFormatError,
    _looks_like_header,
    _parse_alicloud_line,
    _parse_msrc_line,
    iter_alicloud_requests,
    iter_msrc_requests,
    open_trace_file,
)

INT64_MAX = 2**63 - 1
CHUNK_SIZES = (1, 7, 65536)
SPLIT_ROWS = 5


def _ali_row(rng) -> str:
    return (f"v{rng.integers(3)},{'RW'[rng.integers(2)]},{rng.integers(2**40) * 512},"
            f"{rng.integers(1, 64) * 512},{rng.integers(2**50)}")


def _msrc_row(rng) -> str:
    return (f"{rng.integers(2**52)},host{rng.integers(2)},{rng.integers(3)},"
            f"{('Read', 'Write')[rng.integers(2)]},{rng.integers(2**40) * 512},"
            f"{rng.integers(1, 64) * 512},{rng.integers(10**6)}")


BLANKS = ["", "   ", "\t", "\u3000", "\xa0 \x0c"]

FORMATS = {
    "alicloud": dict(
        n_fields=5, row=_ali_row, parse=_parse_alicloud_line, read=iter_alicloud_requests,
        header="device_id,opcode,offset,length,timestamp",
        special={
            "ints": [
                "v0,R, 4096,512,100", "v0,R,+4096,512,100", "v0,R,4_096,512,100",
                "v0,R,00012,512,1", "v0,R,-0,512,1", "v0,R,0,512,\u0661\u0662",
                "v0,R,123456789012345678,512,1", "v0,R,1234567890123456789,512,1",
                "v0,R,12345678901234567890,512,1", f"v0,R,{INT64_MAX},1,1",
                f"v0,R,{INT64_MAX},2,1", "v0,R,9223372036854771712,8192,100",
                f"v0,R,0,512,{INT64_MAX}", "v0,R,0,512,123456789012345678901",
                "v0,R,0,0,1", "v0,R,-512,512,1", "v0,R,12.0,512,1", "v0,R,,512,1",
            ],
            "names": ["vé,R,0,512,1", "卷1,W,0,512,2", " v1 ,R,0,512,3",
                      "\ufeffv2,R,0,512,4", ",R,0,512,5", "v1       ,W,0,512,6",
                      "3f2a9c1e-aaaa-bbbb-cccc-0123456789ab,R,0,512,7"],
            "opcodes": ["v0,r,0,512,1", "v0, W ,0,512,1", "v0,read,0,512,1",
                        "v0,Write,0,512,1", "v0,X,0,512,1", "v0,,0,512,1", "v0,R\x00,0,512,1"],
            "fields": ["v0,R,0,4096", "v0,R,0,4096,1,2", "v0;R;0;4096;1", ",", "v0,R,0,512,1,"],
        },
    ),
    "msrc": dict(
        n_fields=7, row=_msrc_row, parse=_parse_msrc_line, read=iter_msrc_requests,
        header="Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
        special={
            "ints": [
                "1,h,0,Read,0,512, 5", "+1,h,0,Read,0,512,5", "1_0,h,0,Read,0,512,5",
                "1,h,007,Read,0,512,5", "1,h,+1,Read,0,512,5",
                "1,h,12345678901234567890,Read,0,512,5",
                "1281663720005091237,h,0,Read,0,512,5",
                "12816637200050912370,h,0,Read,0,512,5",
                f"1,h,0,Read,{INT64_MAX},1,5", f"1,h,0,Read,{INT64_MAX},2,5",
                "1,h,0,Read,0,0,5", "1,h,0,Read,0,512,-5",
            ],
            "names": ["1,hé,0,Read,0,512,5", "1, h ,1,Write,0,512,5", "1,,0,Read,0,512,5",
                      "1,a-much-longer-hostname,2,Read,0,512,5", "1,host0,0000002,Read,0,512,5"],
            "opcodes": ["1,h,0,read,0,512,5", "1,h,0, WRITE ,0,512,5", "1,h,0,R,0,512,5",
                        "1,h,0,Flush,0,512,5", "1,h,0,Read\x00,0,512,5"],
            "fields": ["1,h,0,Read,0,512", "1,h,0,Read,0,512,5,6", "1,h,0,Read,0,512,5,"],
        },
    ),
}

#: name -> (special classes, newline mix, BOM, header on line 1, final newline, gzip)
CASES = {
    "canonical": ((), "\n", False, False, True, False),
    "crlf": ((), "\r\n", False, False, True, False),
    "lone-cr": ((), "\r", False, False, True, False),
    "mixed-newlines": (("blank",), "mixed", False, False, True, False),
    "bom-header": ((), "\n", True, True, True, False),
    "bom-data": ((), "\r\n", True, False, True, False),
    "blank": (("blank",), "\n", False, False, True, False),
    "headers": (("header",), "\n", False, True, True, False),
    "no-final-newline": (("blank",), "mixed", False, False, False, False),
    "ints": (("ints",), "\n", False, False, True, False),
    "names": (("names",), "\n", False, False, True, False),
    "opcodes": (("opcodes",), "\n", False, False, True, False),
    "fields": (("fields",), "\n", False, False, True, False),
    "gzip": (("blank", "ints", "names"), "mixed", True, True, False, True),
    "everything": (("blank", "header", "ints", "names", "opcodes", "fields"),
                   "mixed", True, False, False, False),
}


def _write_case(tmp_path, fmt: str, case: str, seed: int) -> str:
    spec = FORMATS[fmt]
    classes, newline, bom, header, final_newline, gz = CASES[case]
    rng = np.random.default_rng(seed)
    lines = [spec["row"](rng) for _ in range(30)]
    extras = dict(spec["special"], blank=BLANKS, header=[spec["header"]])
    for cls in classes:
        for line in extras[cls]:
            lines.insert(int(rng.integers(1, len(lines) + 1)), line)
    if header:
        lines.insert(0, spec["header"])
    ends = ["\n", "\r\n", "\r"]
    text = "".join(
        line + (ends[rng.integers(3)] if newline == "mixed" else newline) for line in lines
    )
    if not final_newline:
        text = text.rstrip("\r\n")
    data = (("\ufeff" if bom else "") + text).encode("utf-8")
    path = str(tmp_path / f"{fmt}-{case}.csv{'.gz' if gz else ''}")
    with (gzip.open(path, "wb") if gz else open(path, "wb")) as fh:
        fh.write(data)
    return path


def _oracle(path: str, fmt: str):
    """``(lineno, line, request or TraceFormatError)`` per data line, as
    the row readers see the file (blank lines skipped, header on line 1)."""
    spec = FORMATS[fmt]
    out = []
    with open_trace_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if lineno == 1 and _looks_like_header(line, spec["n_fields"]):
                continue
            try:
                out.append((lineno, line, spec["parse"](line, lineno)))
            except TraceFormatError as exc:
                out.append((lineno, line, exc))
    return out


def _ranges(path: str, split: bool):
    if split and not path.endswith(".gz"):
        units = _split_cold(path, os.path.getsize(path), SPLIT_ROWS)
        if units:
            return [((u.lo, u.hi), u.start_lineno) for u in units]
    return [(None, 1)]


def _parse(path, fmt, chunk_size, on_error, split):
    errors = ParseErrors() if on_error != "strict" else None
    chunks = []
    with metrics.collecting() as reg:
        for byte_range, start in _ranges(path, split):
            chunks += iter_chunks(path, fmt, chunk_size=chunk_size, on_error=on_error,
                                  errors=errors, byte_range=byte_range, start_lineno=start)
    return chunks, errors, reg


def _assert_rows_equal(chunks, requests):
    by_volume = {}
    for chunk in chunks:
        cols = by_volume.setdefault(chunk.volume_id, [[], [], [], [], []])
        cols[0].append(chunk.offsets)
        cols[1].append(chunk.sizes)
        cols[2].append(chunk.is_write)
        cols[3].append(chunk.timestamps)
        if chunk.response_times is not None:
            cols[4].append(chunk.response_times)
    want = {}
    for req in requests:
        want.setdefault(req.volume, []).append(req)
    assert list(sorted(by_volume)) == sorted(want)
    for vid, reqs in want.items():
        offsets, sizes, is_write, timestamps, response = (
            np.concatenate(col) if col else None for col in by_volume[vid]
        )
        assert offsets.tolist() == [r.offset for r in reqs]
        assert sizes.tolist() == [r.size for r in reqs]
        assert is_write.tolist() == [r.is_write for r in reqs]
        # Fast-path batches divide int64 timestamps in float64, the row
        # parser divides Python ints: equal below 2**53, 1 ulp apart at most.
        np.testing.assert_array_max_ulp(timestamps, [r.timestamp for r in reqs], maxulp=1)
        if reqs[0].response_time is None:
            assert response is None
        else:
            np.testing.assert_array_max_ulp(response, [r.response_time for r in reqs], maxulp=1)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_chunk_parser_matches_row_readers(tmp_path, fmt, case):
    path = _write_case(tmp_path, fmt, case, seed=len(case))
    oracle = _oracle(path, fmt)
    good = [req for _, _, req in oracle if not isinstance(req, TraceFormatError)]
    bad = [(no, line, exc) for no, line, exc in oracle if isinstance(exc, TraceFormatError)]
    assert len(good) >= 29  # a BOM fails the first MSRC timestamp
    if case in ("canonical", "crlf", "lone-cr", "bom-header", "blank", "no-final-newline"):
        assert not bad
    want_lines = len(oracle)
    want_chars = sum(len(line) for _, line, _ in oracle)

    for chunk_size in CHUNK_SIZES:
        for split in (False, True):
            # strict: the row readers' first error, or their rows
            if bad:
                with pytest.raises(TraceFormatError) as row_err:
                    list(FORMATS[fmt]["read"](path))
                with pytest.raises(TraceFormatError) as chunk_err:
                    _parse(path, fmt, chunk_size, "strict", split)
                assert str(chunk_err.value) == str(row_err.value) == str(bad[0][2])
                assert chunk_err.value.line_number == bad[0][0]
            else:
                chunks, _, reg = _parse(path, fmt, chunk_size, "strict", split)
                _assert_rows_equal(chunks, good)
                assert reg.counter("parse.lines").value == want_lines
                assert reg.counter("parse.bytes").value == want_chars
            # skip / quarantine: the same rows survive, the rest are counted
            for policy, counter in (("skip", "engine.lines_skipped"),
                                    ("quarantine", "engine.lines_quarantined")):
                chunks, errors, reg = _parse(path, fmt, chunk_size, policy, split)
                _assert_rows_equal(chunks, good)
                assert reg.counter(counter).value == errors.dropped == len(bad)
                want = ParseErrors()
                for no, line, exc in bad:
                    want.record(path, no, str(exc), line, policy == "quarantine")
                assert errors.sample == want.sample
                assert reg.counter("parse.lines").value == want_lines
                assert reg.counter("parse.bytes").value == want_chars


def test_field_bounds_need_each_lines_own_commas():
    # Six commas for two 4-field lines, but 2 + 4 of them: rejected.
    buf = b"a,b,c\nd,e,f,g,h"
    arr = np.frombuffer(buf, dtype=np.uint8)
    with pytest.raises(_BadBatch):
        _field_bounds(arr, np.array([0, 6]), np.array([5, 15]), 4)
    bounds = _field_bounds(arr, np.array([0]), np.array([5]), 3)
    assert [buf[lo[0]:hi[0]] for lo, hi in bounds] == [b"a", b"b", b"c"]


def test_split_units_cut_after_lone_cr(tmp_path):
    # Split sub-units number lines as the parser does, lone CRs included.
    path = _write_case(tmp_path, "alicloud", "lone-cr", seed=3)
    units = _split_cold(path, os.path.getsize(path), SPLIT_ROWS)
    assert [u.start_lineno for u in units] == list(range(1, 31, SPLIT_ROWS))


def test_long_timestamps_divide_as_int64(tmp_path):
    # 19-digit MSRC filetimes stay on the fast path: int64 / 10**7.
    raw = [1281663720005091237, 1281663720008887197, INT64_MAX]
    path = tmp_path / "t.csv"
    path.write_text("".join(f"{t},h,0,Read,0,512,{t}\n" for t in raw))
    (chunk,) = iter_chunks(str(path), "msrc")
    want = np.array(raw, dtype=np.int64) / 10**7
    assert chunk.timestamps.tobytes() == want.tobytes()
    assert chunk.response_times.tobytes() == want.tobytes()


def test_invalid_utf8_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"v0,R,0,512,1\nv\xff,R,0,512,2\n")
    with pytest.raises(UnicodeDecodeError):
        list(iter_alicloud_requests(str(path)))
    for policy in ("strict", "skip"):
        with pytest.raises(UnicodeDecodeError):
            list(iter_chunks(str(path), "alicloud", on_error=policy))


def test_parse_memory_is_bounded_by_chunk_size(tmp_path):
    chunk_size = 1024
    rng = np.random.default_rng(0)

    def peak(n_lines: int) -> int:
        path = tmp_path / f"{n_lines}.csv"
        path.write_text("".join(_ali_row(rng) + "\n" for _ in range(n_lines)))
        tracemalloc.start()
        try:
            for _ in iter_chunks(str(path), "alicloud", chunk_size=chunk_size):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(chunk_size)  # warm-up: first-use allocations
    assert peak(16 * chunk_size) <= 1.10 * peak(4 * chunk_size)
