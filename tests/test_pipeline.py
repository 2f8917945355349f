"""The column-wise CSV writer against the row-wise writer it replaced."""

import hashlib
import inspect
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fwmqkd import photons, pipeline, session
from fwmqkd._kernels import STREAM_DETECTOR, STREAM_SESSION
from fwmqkd.config import DEFAULTS, load_config
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
    write_csv(path, header, [columns])
    return path.read_bytes()


SMALL_CHUNK = 4

EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3,
               1e16, -1e16, 1e-5, 0.1, 1.0, 2.0 ** 62, 123456.789]
EDGE_INTS = [0, -1, 1, 2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)]


def _elements(dtype):
    if dtype.kind == "f":
        finfo = np.finfo(dtype)
        with np.errstate(over="ignore"):
            edges = [float(dtype.type(v)) for v in EDGE_FLOATS]
        return st.one_of(st.sampled_from(edges), st.floats(width=finfo.bits))
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        # the dtype's own limits, 2**63, which only uint64 holds, and the
        # smallest magnitude past uint32
        candidates = [*EDGE_INTS, int(info.min), int(info.max), 2 ** 63, 2 ** 32, -(2 ** 32)]
        edges = [v for v in candidates if info.min <= v <= info.max]
        return st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))
    if dtype.kind == "U":
        # numpy drops trailing NULs, and surrogates do not encode as UTF-8
        chars = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
        return st.text(chars, max_size=dtype.itemsize // 4)
    return st.booleans()


DTYPES = [np.dtype(t) for t in ("int64", "int32", "uint8", "float64", "float32", "bool", "U6",
                                 "int8", "uint64", "float16", "U40")]
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
        write_csv(tmp_path / "t.csv", ["a", "b"], [[np.arange(3), np.arange(2)]])


@st.composite
def _blocks(draw):
    n_columns = draw(st.integers(1, 4))
    # empty, single-row and chunk-edge blocks, each column's dtype drawn per block
    sizes = st.sampled_from([0, 1, SMALL_CHUNK - 1, SMALL_CHUNK + 1])
    blocks = []
    for n in draw(st.lists(sizes, min_size=1, max_size=4)):
        dtypes = draw(st.lists(st.sampled_from(DTYPES), min_size=n_columns, max_size=n_columns))
        blocks.append([draw(hnp.arrays(dt, n, elements=_elements(dt))) for dt in dtypes])
    return blocks


@given(_blocks())
def test_blocks_match_the_row_wise_writer_on_their_joined_rows(tmp_path_factory, blocks):
    header = [f"c{i}" for i in range(len(blocks[0]))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "CSV_CHUNK_ROWS", SMALL_CHUNK)
        write_csv(path, header, blocks)
    rows = itertools.chain.from_iterable(zip(*block) for block in blocks)
    assert path.read_bytes() == _reference_csv(header, rows)


def test_a_header_without_blocks_gives_the_header_line_only(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], [])
    assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"


def test_an_iterator_of_blocks_writes_their_joined_rows(tmp_path):
    blocks = [[np.arange(3), np.array([0.5, -0.0, 2.0])], [np.arange(2), np.array([1.0, 7.0])]]
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "x"], iter(blocks))
    assert path.read_bytes() == _reference_csv(["i", "x"], itertools.chain(*(zip(*b) for b in blocks)))


def test_the_blocks_are_drawn_only_once_the_file_is_open(tmp_path):
    path = tmp_path / "t.csv"

    def stream():
        assert path.exists()
        yield [np.arange(2)]

    write_csv(path, ["i"], stream())
    assert path.read_bytes() == b"i\n0\n1\n"


@pytest.mark.parametrize("late", [
    [np.arange(3)],
    [np.arange(3), np.array([1 + 2j, 3j, 0j])],
], ids=["wrong-column-count", "wrong-dtype"])
def test_a_rejected_late_block_removes_the_partial_file(tmp_path, late):
    path = tmp_path / "t.csv"
    n = pipeline.CSV_CHUNK_ROWS + 1  # a whole chunk is written before the late block
    good = [np.arange(n), np.arange(n)]
    with pytest.raises((ValueError, TypeError)):
        write_csv(path, ["a", "b"], iter([good, late]))
    assert not path.exists()


def test_a_raising_block_iterator_removes_the_partial_file(tmp_path):
    path = tmp_path / "t.csv"

    def stream():
        yield [np.arange(3), np.arange(3)]
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_csv(path, ["a", "b"], stream())
    assert not path.exists()


def test_long_double_prints_as_its_nearest_double(tmp_path):
    values = np.array([0.1, -0.0, 1e300], dtype=np.longdouble)
    assert _written(tmp_path, ["x"], [values]) == _reference_csv(["x"], zip(values))


@pytest.mark.parametrize("columns", [
    [np.arange(3)],
    [np.arange(3), np.arange(3), np.arange(3)],
], ids=["fewer", "more"])
def test_a_block_with_another_column_count_than_the_header_is_rejected(tmp_path, columns):
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[np.arange(3), np.arange(3)], columns])
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("column", [
    np.array([1, "a", None], dtype=object),
    np.array([1 + 2j, 3j]),
    np.array([b"ab", b"c"]),
    np.array(["2025-01-01"], dtype="datetime64[D]"),
    np.array([1], dtype="timedelta64[s]"),
], ids=["object", "complex", "bytes", "datetime", "timedelta"])
def test_a_column_of_another_dtype_is_rejected(tmp_path, column):
    with pytest.raises(TypeError, match="dtype"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[np.arange(column.size), column]])
    assert not (tmp_path / "t.csv").exists()


def test_memory_follows_the_chunk_not_the_row_count(tmp_path):
    # 2^18 rows are 16 chunks; the text of the whole table would be 9 MiB
    n = 1 << 18
    rng = np.random.default_rng(5)
    columns = [np.arange(n), rng.standard_normal(n),
               rng.integers(-500, 500, n).astype(np.int32), rng.integers(0, 2, n) > 0]
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["i", "x", "k", "b"], [columns])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row_width = path.stat().st_size / n
    assert n >= 16 * pipeline.CSV_CHUNK_ROWS
    assert peak < 8 * pipeline.CSV_CHUNK_ROWS * row_width


def _detector_config(pulses):
    config = load_config(None)
    config["detector_check"]["pulses"] = pulses
    return config


def test_detector_check_memory_follows_the_block_not_the_pulse_count(tmp_path):
    peaks = []
    for blocks in (2, 16):
        config = _detector_config(blocks * session.BLOCK_PULSES)
        tracemalloc.start()
        try:
            pipeline.run_detector_check(config, 20260814, tmp_path / f"d{blocks}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # a block of records costs about 107 B per pulse at its peak, so the
    # 28 more blocks of the larger run would add 200 MiB if they were kept
    assert abs(peaks[1] - peaks[0]) < 112 * session.BLOCK_PULSES


def _spied_draws(run_cli, *argv):
    """Run the CLI with draw_photon_counts spied on where session and
    pipeline call it, and return (stream, start, count) of every draw."""
    signature = inspect.signature(photons.draw_photon_counts)
    with mock.patch.object(session, "draw_photon_counts", wraps=photons.draw_photon_counts) as a, \
            mock.patch.object(pipeline, "draw_photon_counts",
                              wraps=photons.draw_photon_counts) as b:
        assert run_cli(*argv) == 0
    calls = [signature.bind(*c.args, **c.kwargs).arguments for c in a.call_args_list
             + b.call_args_list]
    return [(c["stream"], c["start"], c["count"]) for c in calls]


def _tiles(draws, total):
    """Whether the draws' pulse ranges cover 0 .. total - 1 once each."""
    ranges = sorted((start, start + count) for _, start, count in draws)
    return [r[0] for r in ranges] == [0] + [r[1] for r in ranges[:-1]] and ranges[-1][1] == total


def test_a_default_qkd_run_draws_every_pulse_through_draw_photon_counts(run_cli):
    draws = _spied_draws(run_cli, "qkd", "--out", "q")
    report = json.loads((run_cli.cwd / "q" / "qkd_report.json").read_text())
    assert {stream for stream, _, _ in draws} == {STREAM_SESSION}
    assert _tiles(draws, report["total_pulses"])


def test_a_default_detector_check_draws_every_pulse_through_draw_photon_counts(run_cli):
    draws = _spied_draws(run_cli, "detector-check", "--out", "d")
    assert {stream for stream, _, _ in draws} == {STREAM_DETECTOR}
    assert _tiles(draws, 2 * DEFAULTS["detector_check"]["pulses"])


def test_manifest_digests_do_not_depend_on_the_read_size(tmp_path, monkeypatch):
    out = tmp_path / "d"
    files = pipeline.run_detector_check(_detector_config(3000), 20260814, out)
    whole = {f.name: (f.stat().st_size, hashlib.sha256(f.read_bytes()).hexdigest())
             for f in files}
    monkeypatch.setattr(pipeline, "MANIFEST_READ_BYTES", 7)
    manifest = json.loads(pipeline.write_manifest(out, "detector-check", {}, 1, files).read_text())
    assert {e["path"]: (e["bytes"], e["sha256"]) for e in manifest["outputs"]} == whole


def test_write_json_streams_the_bytes_of_one_dumps_call(tmp_path):
    payload = {
        "zeta": [1, [2.5, float("nan")], {"b": None, "a": [float("inf"), -0.0]}],
        "alpha": {"y": "text", "x": [[], [[3]]]},
        "mid": float("nan"),
        "trajectory": [{"budget": b, "contrast": b / 7} for b in range(50)],
    }
    path = tmp_path / "report.json"
    pipeline.write_json(path, payload)
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
