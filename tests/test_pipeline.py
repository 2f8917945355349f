"""The column-wise CSV writer against the row-wise writer it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fwmqkd import pipeline
from fwmqkd.pipeline import write_csv


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference_csv(header, rows) -> bytes:
    """The per-cell row-wise writer, kept as the test oracle."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


SMALL_CHUNK = 4

EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3,
               1e16, -1e16, 1e-5, 0.1, 1.0, 2.0 ** 62, 123456.789]
EDGE_INTS = [0, -1, 1, 2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)]


def _elements(dtype):
    if dtype.kind == "f":
        finfo = np.finfo(dtype)
        edges = [float(dtype.type(v)) for v in EDGE_FLOATS]
        return st.one_of(st.sampled_from(edges), st.floats(width=finfo.bits))
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        edges = [v for v in EDGE_INTS if info.min <= v <= info.max]
        return st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))
    if dtype.kind == "U":
        # numpy drops trailing NULs, and surrogates do not encode as UTF-8
        chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
        return st.text(chars, max_size=6)
    return st.booleans()


DTYPES = [np.dtype(t) for t in ("int64", "int32", "uint8", "float64", "float32", "bool", "U6")]
# no rows, one row, one chunk and one chunk either side, several chunks
LENGTHS = [0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1, 3 * SMALL_CHUNK + 2]


@st.composite
def _tables(draw):
    n = draw(st.sampled_from(LENGTHS))
    dtypes = draw(st.lists(st.sampled_from(DTYPES), min_size=1, max_size=5))
    return [draw(hnp.arrays(dt, n, elements=_elements(dt))) for dt in dtypes]


@given(_tables())
def test_matches_the_row_wise_writer(tmp_path_factory, columns):
    header = [f"c{i}" for i in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "CSV_CHUNK_ROWS", SMALL_CHUNK)
        got = _written(tmp_path_factory.mktemp("csv"), header, columns)
    assert got == _reference_csv(header, zip(*columns))


def test_no_rows_gives_the_header_line_only(tmp_path):
    columns = [np.array([], dtype=np.int64), np.array([], dtype=np.float64)]
    assert _written(tmp_path, ["a", "b"], columns) == b"a,b\n"


def test_every_edge_value_in_one_table(tmp_path):
    n = len(EDGE_FLOATS)
    columns = [np.array(EDGE_FLOATS), np.array(EDGE_FLOATS, dtype=np.float32),
               np.resize(np.array(EDGE_INTS), n), np.arange(n) % 2 == 0]
    expected = _reference_csv(["f64", "f32", "i64", "b"], zip(*columns))
    assert _written(tmp_path, ["f64", "f32", "i64", "b"], columns) == expected
    assert b"-0.0,-0.0," in expected and b"1e+16" in expected and b"1e-05" in expected


def test_mixed_lists_keep_each_cell_type(tmp_path):
    # the shape of the reconstruction table: float cells, nan gaps, str flags
    rows = [(0.0, 500.0, 0.25, "false"), (0.0, 510.0, math.nan, "gap"), (500.0, 500.0, 1.0, "true")]
    columns = [list(col) for col in zip(*rows)]
    assert _written(tmp_path, ["T", "lam", "x", "flag"], columns) == \
        _reference_csv(["T", "lam", "x", "flag"], rows)


def test_several_chunks_at_the_real_chunk_size(tmp_path):
    n = 2 * pipeline.CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(3)
    columns = [np.arange(n), rng.standard_normal(n), rng.integers(0, 5, n) > 2]
    assert _written(tmp_path, ["i", "x", "b"], columns) == _reference_csv(["i", "x", "b"], zip(*columns))


def test_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(3), np.arange(2)])
