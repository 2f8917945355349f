"""End-to-end command behavior: files, formats, exit codes, env handling."""

import contextlib
import copy
import hashlib
import inspect
import json
import math
import tempfile
import warnings
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_csv, read_json, tree_bytes
from fwmqkd import optics, pipeline, reconstruct, session
from fwmqkd.config import DEFAULTS
from fwmqkd.errors import ConfigError

SMALL_MAP = {
    "contrast_map": {
        "t_list": [0.0, 500.0, 1500.0],
        "lambda_min": 500.0,
        "lambda_max": 545.0,
        "points": 19,
    }
}


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _ratio_table(tmp_path, cells):
    """A ratios.csv of `cells` live cells at T = 0."""
    src = tmp_path / f"ratios{cells}.csv"
    src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n" + "".join(
        f"0.0,{500 + k}.0,{0.1 * k},{1.0 + 0.01 * k}\n" for k in range(cells)))
    return src


class TestSpectra:
    def test_default_run_produces_one_file_per_condition(self, run_cli):
        assert run_cli("spectra", "--out", "s") == 0
        out = run_cli.cwd / "s"
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "manifest.json",
            "spectra_RRLL_T0.csv",
            "spectra_RRRR_T0.csv",
            "spectra_RRVH_T0.csv",
            "spectra_RRVV_T0.csv",
        ]
        header, rows = read_csv(out / "spectra_RRRR_T0.csv")
        assert header == ["E_det", "Re", "Im", "intensity"]
        assert len(rows) == 2048

    def test_intensity_column_is_consistent(self, run_cli):
        assert run_cli("spectra", "--out", "s") == 0
        _, rows = read_csv(run_cli.cwd / "s" / "spectra_RRVH_T0.csv")
        for cells in rows[::97]:
            re, im, inten = float(cells[1]), float(cells[2]), float(cells[3])
            assert inten == pytest.approx(re * re + im * im, rel=1e-12)

    def test_peak_ordering_between_the_mixed_conditions(self, run_cli):
        assert run_cli("spectra", "--out", "s") == 0
        peaks = {}
        for cond in ("RRVH", "RRVV"):
            _, rows = read_csv(run_cli.cwd / "s" / f"spectra_{cond}_T0.csv")
            data = np.array([[float(c) for c in row] for row in rows])
            peaks[cond] = data[np.argmax(data[:, 3]), 0]
        assert peaks["RRVH"] < 0.0 < peaks["RRVV"]

    def test_delay_list_controls_the_file_set(self, run_cli, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            {"spectra": {"t_list": [0.0, 250.0], "conditions": ["RRVH"], "points": 64}},
        )
        assert run_cli("spectra", "--config", cfg, "--out", "s") == 0
        names = sorted(p.name for p in (run_cli.cwd / "s").iterdir())
        assert names == ["manifest.json", "spectra_RRVH_T0.csv", "spectra_RRVH_T250.csv"]

    def test_delays_sharing_a_file_name_are_rejected(self, run_cli, tmp_path, capsys):
        cfg = _write_config(
            tmp_path / "c.json",
            {"spectra": {"t_list": [100.0, 100.0000001], "conditions": ["RRVH"], "points": 64}},
        )
        assert run_cli("spectra", "--config", cfg, "--out", "s") == 2
        assert "spectra_RRVH_T100.csv" in capsys.readouterr().err
        assert not (run_cli.cwd / "s").exists()

    def test_manifest_lists_every_artifact(self, run_cli):
        assert run_cli("spectra", "--out", "s") == 0
        manifest = read_json(run_cli.cwd / "s" / "manifest.json")
        listed = {entry["path"] for entry in manifest["outputs"]}
        on_disk = {p.name for p in (run_cli.cwd / "s").iterdir()} - {"manifest.json"}
        assert listed == on_disk
        for entry in manifest["outputs"]:
            assert set(entry) == {"path", "sha256", "bytes"}
            assert len(entry["sha256"]) == 64
        assert "config_sha256" in manifest
        assert manifest["command"] == "spectra"

    def test_an_empty_condition_list_is_rejected(self, run_cli, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {"spectra": {"conditions": []}})
        assert run_cli("spectra", "--config", cfg, "--out", "s") == 2
        assert capsys.readouterr().err == "error: spectra.conditions must not be empty\n"
        assert not (run_cli.cwd / "s").exists()


class TestContrastMap:
    def test_grid_layout_and_bounds(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", SMALL_MAP)
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        header, rows = read_csv(run_cli.cwd / "m" / "contrast_map.csv")
        assert header == ["T_fs", "lambda_nm", "theta_deg", "P"]
        assert len(rows) == 3 * 2 * 19
        p = np.array([float(r[3]) for r in rows])
        assert np.all(np.abs(p) <= 1.0)
        assert {r[2] for r in rows} == {"0", "45"}

    def test_split_contrast_signs_follow_the_field(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", SMALL_MAP)
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        _, rows = read_csv(run_cli.cwd / "m" / "contrast_map.csv")
        by_key = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
        # late delay: the cross-polarized field is gone, the split pins to -1
        assert by_key[("1500.0", "500.0", "0")] == pytest.approx(-1.0, abs=1e-6)
        # zero delay at the red edge: the split setting sees mostly H light
        assert by_key[("0.0", "545.0", "0")] > 0.5

    def test_ratio_table_matches_the_map(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", SMALL_MAP)
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        header, rows = read_csv(run_cli.cwd / "m" / "ratios.csv")
        assert header == ["T_fs", "lambda_nm", "gamma_0", "gamma_45"]
        assert len(rows) == 3 * 19
        _, map_rows = read_csv(run_cli.cwd / "m" / "contrast_map.csv")
        p_map = {(r[0], r[1], r[2]): float(r[3]) for r in map_rows}
        for t, lam, g0, _ in rows:
            gamma = float(g0)
            p = p_map[(t, lam, "0")]
            # P and Gamma describe the same split, modulo the regularizer
            assert (2.0 * gamma / (1.0 + gamma) - 1.0) == pytest.approx(p, abs=1e-6)

    def test_wavelengths_that_round_together_are_rejected(self, run_cli, tmp_path, capsys):
        # The four points round to two distinct wavelengths, so ratios.csv
        # would repeat cells that reconstruct rejects as duplicate rows.
        cfg = _write_config(tmp_path / "c.json", {"contrast_map": {
            "lambda_min": 500.0, "lambda_max": 500.0000000000001, "points": 4, "t_list": [0.0]}})
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: contrast_map.points ") and err.count("\n") == 1
        assert not (run_cli.cwd / "m").exists()

    def test_a_search_grid_it_never_builds_changes_no_byte(self, run_cli, tmp_path):
        # contrast-map reads only grid.xi, so a psi_step far past the
        # search-cell cap that reconstruct enforces is no error here.
        cfg = _write_config(tmp_path / "c.json", {"grid": {"psi_step": 1e-12}})
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        assert run_cli("contrast-map", "--out", "d") == 0
        m, d = run_cli.cwd / "m", run_cli.cwd / "d"
        for name in ("ratios.csv", "contrast_map.csv"):
            assert (m / name).read_bytes() == (d / name).read_bytes()

    def test_a_zero_regularizer_is_rejected(self, run_cli, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {"grid": {"xi": 0.0}})
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (run_cli.cwd / "m").exists()


# Three delays, the first spelled three ways, and three wavelengths: one
# cell is absent, three carry a nan, a negative or an inf ratio, and one the
# degenerate pure vertical field.
GAPPED_RATIO_ROWS = [
    "0.0,500.0,1.2,0.9",
    "0.00,510.0,0.35,1.7",
    "0,520.0,-0.5,0.9",
    "500.0,500.0,0.8,1.1",
    "500.0,520.0,0.0,0.9999999980000005",
    "250.0,500.0,nan,0.5",
    "250.0,510.0,2.0,inf",
    "250.0,520.0,0.6,0.6",
]


@cache
def _reconstruct_bytes(rows):
    """The bytes of every file a reconstruct run writes for these data rows."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "ratios.csv"
        src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n" + "\n".join(rows) + "\n")
        files = pipeline.run_reconstruct(copy.deepcopy(DEFAULTS), Path(tmp) / "r", str(src))
        return {f.name: f.read_bytes() for f in files}


class TestReconstruct:
    def _chain(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", SMALL_MAP)
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        assert run_cli("reconstruct", "--input", str(run_cli.cwd / "m" / "ratios.csv"),
                       "--out", "r") == 0
        return run_cli.cwd / "r"

    def test_full_chain_reconstructs_every_cell(self, run_cli, tmp_path):
        out = self._chain(run_cli, tmp_path)
        header, rows = read_csv(out / "reconstruction.csv")
        assert header == ["T_fs", "lambda_nm", "A_H", "A_V", "phi", "SE", "degenerate"]
        assert len(rows) == 3 * 19
        for row in rows:
            assert row[6] in ("true", "false", "gap")
        residuals = read_json(out / "residuals.json")
        assert residuals["cells_total"] == 3 * 19
        assert residuals["cells_gap"] == 0
        assert residuals["max_abs_p_residual"] < 0.05

    def test_recovered_amplitudes_track_the_known_field(self, run_cli, tmp_path):
        out = self._chain(run_cli, tmp_path)
        _, rows = read_csv(out / "reconstruction.csv")
        by_key = {(r[0], r[1]): r for r in rows}
        early = by_key[("0.0", "545.0")]
        assert float(early[2]) > float(early[3])  # A_H dominates at zero delay
        late = by_key[("1500.0", "500.0")]
        assert float(late[2]) < 0.01  # cross field has decayed away

    def test_unusable_rows_become_gap_cells(self, run_cli, tmp_path):
        src = tmp_path / "ratios.csv"
        src.write_text(
            "T_fs,lambda_nm,gamma_0,gamma_45\n"
            "0.0,500.0,1.2,0.9\n"
            "0.0,510.0,nan,0.9\n"
            "500.0,500.0,0.8,1.1\n"
        )
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 0
        _, rows = read_csv(run_cli.cwd / "r" / "reconstruction.csv")
        assert len(rows) == 4  # 2 delays x 2 wavelengths, rectangle completed
        markers = {(r[0], r[1]): r[6] for r in rows}
        assert markers[("0.0", "510.0")] == "gap"
        assert markers[("500.0", "510.0")] == "gap"
        assert markers[("0.0", "500.0")] in ("true", "false")
        gap_row = [r for r in rows if r[6] == "gap"][0]
        assert gap_row[2] == gap_row[3] == gap_row[4] == gap_row[5] == "nan"
        residuals = read_json(run_cli.cwd / "r" / "residuals.json")
        assert residuals["cells_gap"] == 2

    def test_schema_violations_are_configuration_errors(self, run_cli, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("T_fs,lambda_nm,gamma_0\n0.0,500.0,1.0\n")
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 2
        err = capsys.readouterr().err
        assert "gamma_45" in err

    def test_duplicate_cells_are_rejected(self, run_cli, tmp_path):
        src = tmp_path / "dup.csv"
        src.write_text(
            "T_fs,lambda_nm,gamma_0,gamma_45\n"
            "0.0,500.0,1.2,0.9\n"
            "0.0,500.0,1.3,0.8\n"
        )
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 2

    def test_missing_input_is_an_io_error(self, run_cli):
        assert run_cli("reconstruct", "--input", "nowhere.csv", "--out", "r") == 3

    @pytest.mark.parametrize("data", [
        "nan,500,1,1\nnan,500,1,1\n",
        "0,1e400,1,1\n",
    ], ids=["nan-delay-twice", "overflowing-wavelength"])
    def test_a_non_finite_key_is_rejected_by_its_line(self, run_cli, tmp_path, capsys, data):
        # nan never equals itself, so two nan rows used to become two cells.
        src = tmp_path / "ratios.csv"
        src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n" + data)
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "finite" in err and err.count("\n") == 1
        assert not (run_cli.cwd / "r").exists()

    def test_a_bad_row_is_reported_by_its_line_in_the_file(self, run_cli, tmp_path, capsys):
        # Blank lines are skipped but still counted.
        src = tmp_path / "ratios.csv"
        src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n\n0.0,500.0,1.2,0.9\n\n\n"
                       "0.0,510.0,x,0.9\n")
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 2
        err = capsys.readouterr().err
        assert "line 6: non-numeric cell" in err and err.count("\n") == 1

    @pytest.mark.parametrize("ratios", ["1e200,0.5", "0.5,1e308"])
    def test_a_ratio_above_the_bound_is_a_gap_and_warns_about_nothing(self, run_cli, tmp_path,
                                                                      capsys, ratios):
        # Its squared errors and its implied contrast used to overflow, so
        # numpy warned and the cell read SE inf (or the residuals Infinity).
        src = tmp_path / "ratios.csv"
        src.write_text(f"T_fs,lambda_nm,gamma_0,gamma_45\n0,500,{ratios}\n0,510,0.5,0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("reconstruct", "--input", src, "--out", "r") == 0
        assert capsys.readouterr().err == ""
        _, rows = read_csv(run_cli.cwd / "r" / "reconstruction.csv")
        assert rows[0] == ["0.0", "500.0", "nan", "nan", "nan", "nan", "gap"]
        assert rows[1][6] == "false"
        residuals = read_json(run_cli.cwd / "r" / "residuals.json")
        assert residuals["cells_gap"] == 1
        assert math.isfinite(residuals["max_abs_p_residual"])

    def test_a_key_is_written_as_its_first_row_spells_it(self, run_cli, tmp_path):
        src = tmp_path / "ratios.csv"
        src.write_text(
            "T_fs,lambda_nm,gamma_0,gamma_45\n"
            "-0.0,500.0,1.2,0.9\n"
            "0.0,510.0,0.35,1.7\n"
        )
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 0
        _, rows = read_csv(run_cli.cwd / "r" / "reconstruction.csv")
        assert [r[:2] for r in rows] == [["-0.0", "500.0"], ["-0.0", "510.0"]]

    def test_a_pair_on_the_last_psi_row_of_an_overshooting_grid_reconstructs(self, run_cli,
                                                                               tmp_path):
        # psi_step * 79 rounds one ulp past pi/2, where this pair used to
        # exit 2 with "field amplitudes must be non-negative".
        src = tmp_path / "ratios.csv"
        src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n0.0,500.0,1000000000.0,1.0\n")
        cfg = _write_config(tmp_path / "c.json", {"grid": {"psi_step": 0.019883497807530338}})
        assert run_cli("reconstruct", "--config", cfg, "--input", src, "--out", "r") == 0
        _, rows = read_csv(run_cli.cwd / "r" / "reconstruction.csv")
        assert len(rows) == 1 and float(rows[0][3]) >= 0.0

    # reconstruction.csv and residuals.json digests captured before the
    # residuals and the field columns were filled as arrays.
    @pytest.mark.parametrize("rows,gaps,digests", [
        (["0.0,500.0,nan,0.5", "0.0,510.0,-1.0,0.5", "250.0,500.0,1.0,inf"], 4, {
            "reconstruction.csv": "0251f75d01fc50abf0255b3c45b457511e8cf5d319f4b5b12ad4823d177121fb",
            "residuals.json": "a76b17d17cffbf203722e8034313ae40c8536b3914cec0011c6737530347df10",
        }),
        (["0.0,500.0,1.2,0.9"], 0, {
            "reconstruction.csv": "75b0b0fcf842824016ce0087d54206259ffcaa00a7c2dae2778d9b8259587b9a",
            "residuals.json": "3714fb4fb5291b23369a10481ae6ac1d72c7b00d9a3abc4771d9c7202ee1f9cf",
        }),
        (GAPPED_RATIO_ROWS, 4, {
            "reconstruction.csv": "6e2c4b80045350b0bf7f2f92af1ca0b7cf64bd3857e43b3b28fd3395226a001a",
            "residuals.json": "76120751843249c0b44f13446ad4176b85002c0aa1d53f67f4c6225a18c11c89",
        }),
    ], ids=["every-cell-a-gap", "one-live-cell", "gaps-between-live-cells"])
    def test_edge_tables_keep_their_bytes(self, run_cli, tmp_path, rows, gaps, digests):
        src = tmp_path / "ratios.csv"
        src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n" + "\n".join(rows) + "\n")
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 0
        out = run_cli.cwd / "r"
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests
        residuals = read_json(out / "residuals.json")
        assert residuals["cells_gap"] == gaps
        no_live_cell = gaps == residuals["cells_total"]
        assert (residuals["max_abs_p_residual"] is None) == no_live_cell
        assert (residuals["rms_p_residual"] is None) == no_live_cell

    def test_bytes_do_not_depend_on_the_residual_block(self, run_cli, tmp_path, monkeypatch):
        # 57 live cells give nine blocks of 7, the last one partial.
        src = run_cli.cwd / "m" / "ratios.csv"
        default = self._chain(run_cli, tmp_path)
        monkeypatch.setattr(reconstruct, "RATIO_TABLE_BLOCK_CELLS", 7)
        with mock.patch.object(pipeline, "per_field_intensity_pair",
                               wraps=optics.per_field_intensity_pair) as spy:
            assert run_cli("reconstruct", "--input", str(src), "--out", "r7") == 0
        assert spy.call_count == 2 * 9
        for name in ("reconstruction.csv", "residuals.json"):
            assert (run_cli.cwd / "r7" / name).read_bytes() == (default / name).read_bytes()

    def test_the_optics_calls_do_not_grow_with_the_cell_count(self, tmp_path):
        # Every optics function that pipeline or reconstruct looks up is
        # counted, so a per-cell loop over any of them calls it more often
        # at 50 cells than at 5.
        reconstruct.reconstruct_map([(1.0, 1.0)])  # caches the ratio tables first
        targets = [(module, name) for module in (pipeline, reconstruct)
                   for name, value in vars(optics).items()
                   if inspect.isfunction(value) and value.__module__ == optics.__name__
                   and getattr(module, name, None) is value]
        calls = []
        for cells in (5, 50):
            src = _ratio_table(tmp_path, cells)
            with contextlib.ExitStack() as stack:
                spies = {f"{module.__name__}.{name}": stack.enter_context(
                    mock.patch.object(module, name, wraps=getattr(optics, name)))
                    for module, name in targets}
                pipeline.run_reconstruct(copy.deepcopy(DEFAULTS), tmp_path / f"r{cells}", str(src))
            calls.append({name: spy.call_count for name, spy in spies.items()})
        assert calls[0] == calls[1]
        assert calls[0]["fwmqkd.pipeline.per_field_intensity_pair"] == 2

    def test_a_run_builds_no_object_per_pair(self, tmp_path):
        # run_reconstruct reads the search's columns, so neither a
        # SignalField nor a ReconstructionResult is built for any pair.
        reconstruct.reconstruct_map([(1.0, 1.0)])  # caches the ratio tables first
        for cells in (5, 50):
            src = _ratio_table(tmp_path, cells)
            with mock.patch.object(reconstruct, "SignalField", wraps=reconstruct.SignalField) as fields, \
                    mock.patch.object(reconstruct, "ReconstructionResult",
                                      wraps=reconstruct.ReconstructionResult) as results:
                pipeline.run_reconstruct(copy.deepcopy(DEFAULTS), tmp_path / f"r{cells}", str(src))
            assert fields.call_count == results.call_count == 0

    @settings(max_examples=25)
    @given(order=st.permutations(range(len(GAPPED_RATIO_ROWS))))
    def test_the_row_order_of_the_input_changes_no_byte(self, order):
        shuffled = _reconstruct_bytes(tuple(GAPPED_RATIO_ROWS[i] for i in order))
        assert shuffled == _reconstruct_bytes(tuple(GAPPED_RATIO_ROWS))


class TestQkd:
    def test_reference_session_decodes(self, run_cli):
        assert run_cli("qkd", "--out", "q") == 0
        report = read_json(run_cli.cwd / "q" / "qkd_report.json")
        assert report["decoded_message"] == "Tar Heel"
        assert report["percent_correct"] == 100.0
        assert abs(report["sift_retention"] - 0.25) <= 0.01
        assert report["convergence"]["converged"] is True

    def test_snapshot_lines_are_human_readable(self, run_cli):
        assert run_cli("qkd", "--out", "q") == 0
        lines = (run_cli.cwd / "q" / "snapshots.txt").read_text().splitlines()
        assert lines, "no snapshot lines written"
        for line in lines:
            assert line.startswith("photons_per_bit=")
            assert "retained_mean=" in line
            assert "decoded=" in line
        assert lines[-1].endswith("decoded=Tar Heel")

    def test_trajectory_rows_record_state_changes(self, run_cli):
        assert run_cli("qkd", "--out", "q") == 0
        header, rows = read_csv(run_cli.cwd / "q" / "trajectory.csv")
        assert header == ["bit_index", "photons", "contrast", "estimate", "correct"]
        bit_idx = [int(r[0]) for r in rows]
        assert bit_idx == sorted(bit_idx)
        assert set(bit_idx) == set(range(56))
        for bit in (0, 17, 55):
            photons = [int(r[1]) for r in rows if int(r[0]) == bit]
            assert photons == sorted(photons)
            assert len(set(photons)) == len(photons)
        assert {r[3] for r in rows} <= {"-1", "0", "1"}
        assert {r[4] for r in rows} <= {"true", "false"}

    def test_presets_select_the_channel(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", {"qkd": {"preset": "500nm"}})
        assert run_cli("qkd", "--config", cfg, "--out", "q") == 0
        report = read_json(run_cli.cwd / "q" / "qkd_report.json")
        assert report["channel"]["decode_basis"] == 1
        assert report["decoded_message"] == "Tar Heel"

    def test_rerun_is_byte_identical(self, run_cli):
        assert run_cli("qkd", "--out", "a") == 0
        assert run_cli("qkd", "--out", "b") == 0
        assert tree_bytes(run_cli.cwd / "a") == tree_bytes(run_cli.cwd / "b")

    # trajectory.csv digests and report fields of a 16-char, 300-cycle
    # session at the default seed, captured before the session engine was
    # rewritten to draw in blocks; any change to them changes the artifact.
    # The qkd_report.json digests were captured at artifact version 0.2.0,
    # when the channel calibration moved onto the array field path.
    @pytest.mark.parametrize("preset,trajectory_sha,report_sha,sift_retention", [
        ("540nm", "73555f8ec4060c9fc4c616035db022d5a94afb88e56abb327ae8564fe9fc07a6",
         "34974d3dfcae03b5cc49a5a5d9200e40f26ed50f8126ccd6992f9fef7b1439c8",
         0.2523809523809524),
        ("500nm", "34b8dbbe0988d7c2ecd52b1428ec9b24f821c9416cbcf990c4e2884bf735889f",
         "21fe10c3e70aaeace35e5953d4b1a6217c479e0d6e9eb163986c952c2fb6014e",
         0.2538690476190476),
    ])
    def test_small_session_matches_golden_digest(self, run_cli, tmp_path, preset,
                                                 trajectory_sha, report_sha, sift_retention):
        message = "Spin-encoded QKD"
        cfg = _write_config(tmp_path / "c.json",
                            {"qkd": {"preset": preset, "message": message, "cycles": 300}})
        assert run_cli("qkd", "--config", cfg, "--out", "q") == 0
        for name, sha in (("trajectory.csv", trajectory_sha), ("qkd_report.json", report_sha)):
            data = (run_cli.cwd / "q" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == sha, name
        report = read_json(run_cli.cwd / "q" / "qkd_report.json")
        assert report["decoded_message"] == message
        assert report["sift_retention"] == sift_retention

    def test_bad_threshold_mode_is_a_config_error(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", {"qkd": {"threshold_mode": "bogus"}})
        assert run_cli("qkd", "--config", cfg, "--out", "q") == 2

    # The channel keys take a finite number or null; a string, even one that
    # reads as a number, is a schema error named by its full key.
    @pytest.mark.parametrize("value", ["540", "inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["lambda_nm", "decode_theta_deg"])
    def test_a_channel_string_is_rejected_by_name(self, run_cli, tmp_path, capsys, key, value):
        cfg = _write_config(tmp_path / "c.json",
                            {"qkd": {key: value, "message": "A", "cycles": 10}})
        assert run_cli("qkd", "--config", cfg, "--out", "q") == 2
        assert capsys.readouterr().err == (
            f"error: config key 'qkd.{key}' must be a finite number\n")
        assert not (run_cli.cwd / "q").exists()


class TestDetectorCheck:
    def test_report_and_records(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", {"detector_check": {"pulses": 1500}})
        assert run_cli("detector-check", "--config", cfg, "--out", "d") == 0
        report = read_json(run_cli.cwd / "d" / "detector_check.json")
        for setting in ("theta_0", "theta_45"):
            block = report["settings"][setting]
            assert set(block["stats"]) == {
                "N_H",
                "N_V",
                "P_cum",
                "P_bar",
                "sigma_P",
                "M",
                "M_used",
                "g2_measured",
            }
            assert block["stats"]["M"] == 1500
            assert block["gamma"] >= 0.0
            assert block["sipm_roundtrip_ok"] <= block["sipm_roundtrip_total"]
            assert block["sipm_roundtrip_total"] == 2 * 1500
        assert "value" in report["resolution"]
        assert "saturated" in report["resolution"]
        assert report["pulses"] == 1500
        header, rows = read_csv(run_cli.cwd / "d" / "records.csv")
        assert header == ["pulse_index", "T_fs", "theta_deg", "n_H", "n_V"]
        assert len(rows) == 2 * 1500

    def test_gamma_is_the_contrast_map_ratio_at_the_configured_xi(self, run_cli, tmp_path):
        # Both commands regularize with grid.xi, so at a non-default xi each
        # setting's gamma is the ratios.csv entry of the checked cell.
        cfg = _write_config(tmp_path / "c.json",
                            {"grid": {"xi": 0.5}, "detector_check": {"pulses": 1000}})
        assert run_cli("detector-check", "--config", cfg, "--out", "d") == 0
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        settings = read_json(run_cli.cwd / "d" / "detector_check.json")["settings"]
        _, rows = read_csv(run_cli.cwd / "m" / "ratios.csv")
        cell = (DEFAULTS["detector_check"]["t"], DEFAULTS["detector_check"]["lambda_nm"])
        [row] = [r for r in rows if (float(r[0]), float(r[1])) == cell]
        assert settings["theta_0"]["gamma"] == float(row[2])
        assert settings["theta_45"]["gamma"] == float(row[3])

    def test_a_zero_regularizer_is_rejected_before_any_write(self, run_cli, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json", {"grid": {"xi": 0.0}})
        assert run_cli("detector-check", "--config", cfg, "--out", "d") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (run_cli.cwd / "d").exists()

    def test_resolution_grows_with_pulse_count(self, run_cli, tmp_path):
        values = {}
        for n in (400, 6400):
            cfg = _write_config(tmp_path / f"c{n}.json", {"detector_check": {"pulses": n}})
            assert run_cli("detector-check", "--config", cfg, "--out", f"d{n}") == 0
            values[n] = read_json(run_cli.cwd / f"d{n}" / "detector_check.json")[
                "resolution"
            ]["value"]
        assert values[6400] > values[400]

    # records.csv and detector_check.json digests captured before
    # detector-check drew its pulses in blocks; at g2 = 2.5 and at
    # max_photons = 1 some pulses clamp.
    @pytest.mark.parametrize("block", [1, 3, 1000, 5000])
    @pytest.mark.parametrize("section,digests", [
        ({"pulses": 1000}, None),  # the golden digests at the end of this module
        ({"pulses": 1000, "g2_target": 2.5}, {
            "records.csv": "040bb1466e1bcb6323700b5b75274173ab5eb31479444a5766357cc6a30087ee",
            "detector_check.json": "56cf09fb21d2c9470530fed12e58f7a7a632f6c8a75042df440e3321fcc86a95",
        }),
        ({"pulses": 1000, "max_photons": 1}, {
            "records.csv": "9a2b5f98f593ce45933f48fe84040cc68266a1ee8ce8d27199bc4362ccf59ed4",
            "detector_check.json": "776e2c4e9fd7e356518699adbe06056b8504a0bc691cb92ce9ef0ed08cb30664",
        }),
    ], ids=["default", "g2-2.5", "max-photons-1"])
    def test_bytes_do_not_depend_on_the_block_size(self, run_cli, tmp_path, monkeypatch,
                                                    block, section, digests):
        if digests is None:
            digests = {**DETECTOR_DIGESTS, "detector_check.json": DETECTOR_JSON_DIGEST}
        monkeypatch.setattr(session, "BLOCK_PULSES", block)
        cfg = _write_config(tmp_path / "c.json", {"detector_check": section})
        assert run_cli("detector-check", "--config", cfg, "--out", "d") == 0
        out = run_cli.cwd / "d"
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    # No pulse sees a photon, which is known only once records.csv is written.
    NO_PHOTONS = {"detector_check": {"mean_total_photons": 1e-320, "pulses": 100}}

    def test_a_late_rejection_keeps_an_existing_directory_and_its_files(self, run_cli, tmp_path):
        out = run_cli.cwd / "out"
        out.mkdir()
        (out / "notes.txt").write_text("unrelated")
        cfg = _write_config(tmp_path / "c.json", self.NO_PHOTONS)
        assert run_cli("detector-check", "--config", cfg, "--out", "out") == 2
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "unrelated"

    def test_a_late_rejection_removes_every_directory_it_created(self, run_cli, tmp_path):
        (run_cli.cwd / "a").mkdir()
        cfg = _write_config(tmp_path / "c.json", self.NO_PHOTONS)
        assert run_cli("detector-check", "--config", cfg, "--out", "a/b/c") == 2
        assert list((run_cli.cwd / "a").iterdir()) == []

    @pytest.mark.parametrize("pulses,rejected", [(2**52, True), (2**52 - 1, False)])
    def test_the_pulse_count_stays_below_the_exact_g2_bound(self, run_cli, tmp_path, capsys,
                                                            monkeypatch, pulses, rejected):
        # n_max = 2 photons per pulse, so pulses x n_max(n_max - 1) reaches
        # 2^53 at 2^52.  No run may draw that many: one that passes the
        # check stops at its first write.
        def stop(*args, **kwargs):
            raise ConfigError("stopped at the first write")

        monkeypatch.setattr(pipeline, "write_csv", stop)
        cfg = _write_config(tmp_path / "c.json",
                            {"detector_check": {"max_photons": 1, "pulses": pulses}})
        assert run_cli("detector-check", "--config", cfg, "--out", "out") == 2
        err = capsys.readouterr().err
        assert ("2^53" in err, "first write" in err) == (rejected, not rejected)
        assert not (run_cli.cwd / "out").exists()


class TestGoldenDigests:
    """SHA-256 of every CSV table the CLI writes, and of reconstruct's
    residuals.json, at small sizes and the default seed; the CSV digests
    were captured before the CSV writer went column-wise.  Any change to
    them changes the artifact bytes."""

    @staticmethod
    def _digests(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(directory.glob("*.csv"))}

    def test_spectra(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json",
                            {"spectra": {"t_list": [0.0, 125.5, 400.0], "points": 33}})
        assert run_cli("spectra", "--config", cfg, "--out", "s") == 0
        assert self._digests(run_cli.cwd / "s") == SPECTRA_DIGESTS

    def test_contrast_map_and_ratios(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", SMALL_MAP)
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        assert self._digests(run_cli.cwd / "m") == CONTRAST_MAP_DIGESTS

    def test_reconstruction_with_gap_and_degenerate_cells(self, run_cli, tmp_path):
        # (500, 510) is missing, (0, 520) has a negative ratio, and the pure
        # vertical field at (500, 520) ties along the whole phase row.
        src = tmp_path / "ratios.csv"
        src.write_text(
            "T_fs,lambda_nm,gamma_0,gamma_45\n"
            "0.0,500.0,1.2,0.9\n"
            "0.0,510.0,0.35,1.7\n"
            "0.0,520.0,-0.5,0.9\n"
            "500.0,500.0,0.8,1.1\n"
            "500.0,520.0,0.0,0.9999999980000005\n"
        )
        assert run_cli("reconstruct", "--input", str(src), "--out", "r") == 0
        _, rows = read_csv(run_cli.cwd / "r" / "reconstruction.csv")
        assert [r[6] for r in rows] == ["false", "false", "gap", "false", "gap", "true"]
        assert self._digests(run_cli.cwd / "r") == RECONSTRUCTION_DIGESTS

    def test_reconstruction_of_the_small_map_chain(self, run_cli, tmp_path):
        # Captured before the residuals were evaluated as arrays.
        cfg = _write_config(tmp_path / "c.json", SMALL_MAP)
        assert run_cli("contrast-map", "--config", cfg, "--out", "m") == 0
        assert run_cli("reconstruct", "--input", str(run_cli.cwd / "m" / "ratios.csv"),
                       "--out", "r") == 0
        out = run_cli.cwd / "r"
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in SMALL_MAP_RECONSTRUCTION_DIGESTS} == SMALL_MAP_RECONSTRUCTION_DIGESTS

    def test_detector_records(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", {"detector_check": {"pulses": 1000}})
        assert run_cli("detector-check", "--config", cfg, "--out", "d") == 0
        assert self._digests(run_cli.cwd / "d") == DETECTOR_DIGESTS


class TestCommonBehavior:
    def test_malformed_config_writes_nothing(self, run_cli, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run_cli("spectra", "--config", str(bad), "--out", "s") == 2
        assert not (run_cli.cwd / "s").exists()

    @pytest.mark.parametrize("command,flag,data", [
        ("qkd", "--config", b"\xff\xfe{}"),
        ("reconstruct", "--input", b"T_fs,lambda_nm,gamma_0,gamma_45\n0,500,1,\xff\n"),
    ], ids=["qkd-config", "reconstruct-input"])
    def test_an_input_that_is_not_utf8_is_named_in_one_line(self, run_cli, tmp_path, capsys,
                                                           command, flag, data):
        src = tmp_path / "input"
        src.write_bytes(data)
        assert run_cli(command, flag, src, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(src) in err and "UTF-8" in err
        assert err.count("\n") == 1
        assert not (run_cli.cwd / "out").exists()

    @pytest.mark.parametrize("command,section", [
        ("spectra", {"spectra": {"t_list": [100.0, 100.0000001]}}),
        ("spectra", {"spectra": {"t_list": [0.0, -1.0]}}),
        ("contrast-map", {"contrast_map": {"t_list": [0.0, 0.0]}}),
        ("contrast-map", {"contrast_map": {"t_list": [0.0, -0.0]}}),
        ("qkd", {"qkd": {"preset": "600nm"}}),
        ("qkd", {"qkd": {"threshold_mode": "bogus"}}),
    ], ids=["colliding-delays", "negative-delay", "repeated-delay", "signed-zero-delays",
            "unknown-preset", "bad-threshold-mode"])
    def test_a_rejected_run_leaves_no_output_directory(self, run_cli, tmp_path, command, section):
        cfg = _write_config(tmp_path / "c.json", section)
        assert run_cli(command, "--config", cfg, "--out", "out") == 2
        assert not (run_cli.cwd / "out").exists()

    def test_an_oversized_search_grid_is_rejected(self, run_cli, tmp_path, capsys):
        src = tmp_path / "ratios.csv"
        src.write_text("T_fs,lambda_nm,gamma_0,gamma_45\n0.0,520.0,1.0,1.0\n")
        cfg = _write_config(tmp_path / "c.json", {"grid": {"psi_step": 1e-12}})
        assert run_cli("reconstruct", "--config", cfg, "--input", src, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid steps give") and err.count("\n") == 1
        assert not (run_cli.cwd / "out").exists()

    @pytest.mark.parametrize("command,section", [
        ("spectra", {"spectra": {"e_min": -1e308, "e_max": 1e308}}),
        ("contrast-map", {"contrast_map": {"lambda_min": -1e308, "lambda_max": 1e308}}),
    ], ids=["spectra", "contrast-map"])
    def test_a_grid_span_past_the_float_range_is_rejected(self, run_cli, tmp_path, capsys,
                                                          command, section):
        # Each end is finite but max - min overflows, which used to fill the
        # grid with inf and nan.
        cfg = _write_config(tmp_path / "c.json", section)
        assert run_cli(command, "--config", cfg, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
        assert not (run_cli.cwd / "out").exists()

    @pytest.mark.parametrize("model", [{}, {"delta": 0.5}])
    def test_a_huge_finite_grid_runs_without_a_warning(self, run_cli, tmp_path, capsys, model):
        # Far out the distance from a line in widths, or its square,
        # overflows to inf; the lineshapes are exactly 0 there, but numpy
        # used to print an overflow warning.
        cfg = _write_config(tmp_path / "c.json",
                            {"model": model, "spectra": {"e_min": 0, "e_max": 1e308}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("spectra", "--config", cfg, "--out", "s") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,key", [
        ("spectra", "spectra"),
        ("contrast-map", "contrast_map"),
    ])
    def test_a_one_point_grid_is_rejected_by_its_full_key(self, run_cli, tmp_path, capsys,
                                                          command, key):
        cfg = _write_config(tmp_path / "c.json", {key: {"points": 1}})
        assert run_cli(command, "--config", cfg, "--out", "out") == 2
        assert capsys.readouterr().err == f"error: {key}.points must be at least 2\n"
        assert not (run_cli.cwd / "out").exists()

    @pytest.mark.parametrize("points", [pipeline.MAX_GRID_POINTS + 1, 10**12])
    @pytest.mark.parametrize("command,key", [
        ("spectra", "spectra"),
        ("contrast-map", "contrast_map"),
    ])
    def test_a_grid_above_the_cap_is_rejected_by_its_full_key(self, run_cli, tmp_path, capsys,
                                                              command, key, points):
        # 10**12 points asked numpy for 7.28 TiB and ended in a MemoryError.
        cfg = _write_config(tmp_path / "c.json", {key: {"points": points}})
        assert run_cli(command, "--config", cfg, "--out", "out") == 2
        assert capsys.readouterr().err == (f"error: {key}.points must be at most "
                                           f"{pipeline.MAX_GRID_POINTS:,}, got {points:,}\n")
        assert not (run_cli.cwd / "out").exists()

    def test_a_grid_at_the_cap_is_built(self):
        section = {"lo": 0.0, "hi": 1.0, "points": pipeline.MAX_GRID_POINTS}
        assert pipeline._grid({"s": section}, "s", "lo", "hi").size == pipeline.MAX_GRID_POINTS

    # Inputs the library rejects with MessageEncodingError or
    # DegenerateInputError, which are not ConfigError subclasses.
    @pytest.mark.parametrize("command,section", [
        ("qkd", {"qkd": {"message": "\u00e9"}}),
        ("qkd", {"model": {"k_spin": 0}}),
        ("detector-check", {"detector_check": {"mean_total_photons": 1e-320}}),
    ], ids=["non-ascii-message", "indistinct-delays", "no-photons"])
    def test_rejected_input_exits_2_with_one_line(self, run_cli, tmp_path, capsys,
                                                  command, section):
        cfg = _write_config(tmp_path / "c.json", section)
        assert run_cli(command, "--config", cfg, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (run_cli.cwd / "out").exists()

    # At this delta_ev every wavelength lies so far out on the line tails
    # that the squared amplitudes are subnormal, and the rounded field misses
    # A_H^2 + A_V^2 = 1; every command that builds a field rejects it.
    @pytest.mark.parametrize("command", ["contrast-map", "qkd", "detector-check"])
    def test_an_unnormalized_field_exits_2_with_one_line(self, run_cli, tmp_path, capsys, command):
        cfg = _write_config(tmp_path / "c.json", {"model": {"delta_ev": 1e-160}})
        assert run_cli(command, "--config", cfg, "--out", "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field is not normalized: A_H^2+A_V^2 = ")
        assert err.count("\n") == 1
        assert not (run_cli.cwd / "out").exists()

    @pytest.mark.parametrize("command,section", [
        ("spectra", {"output_dir": 3}),
        ("reconstruct", {"reconstruct": {"input": 5}}),
    ], ids=["output-dir", "reconstruct-input"])
    def test_a_number_in_a_path_key_exits_2_with_one_line(self, run_cli, tmp_path, capsys,
                                                          command, section):
        cfg = _write_config(tmp_path / "c.json", section)
        assert run_cli(command, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in run_cli.cwd.iterdir()] == ["c.json"]

    def test_unknown_config_keys_are_rejected(self, run_cli, tmp_path):
        cfg = _write_config(tmp_path / "c.json", {"spectre": {}})
        assert run_cli("spectra", "--config", cfg, "--out", "s") == 2

    def test_missing_config_file_is_an_io_error(self, run_cli):
        assert run_cli("spectra", "--config", "absent.json", "--out", "s") == 3

    def test_output_dir_collision_with_a_file(self, run_cli):
        (run_cli.cwd / "blocked").write_text("file in the way")
        assert run_cli("spectra", "--out", "blocked/sub") == 3

    def test_env_output_dir_is_used_as_the_base(self, run_cli, monkeypatch):
        monkeypatch.setenv("FWMQKD_OUTPUT_DIR", str(run_cli.cwd / "from_env"))
        assert run_cli("qkd") == 0
        assert (run_cli.cwd / "from_env" / "fwmqkd_qkd" / "qkd_report.json").exists()

    def test_default_output_lands_under_the_working_directory(self, run_cli):
        assert run_cli("qkd") == 0
        assert (run_cli.cwd / "fwmqkd_qkd" / "qkd_report.json").exists()

    def test_out_flag_beats_the_env_var(self, run_cli, monkeypatch):
        monkeypatch.setenv("FWMQKD_OUTPUT_DIR", str(run_cli.cwd / "from_env"))
        assert run_cli("qkd", "--out", "from_flag") == 0
        assert (run_cli.cwd / "from_flag" / "qkd_report.json").exists()
        assert not (run_cli.cwd / "from_env").exists()

    def test_seed_precedence_cli_env_config(self, run_cli, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path / "c.json", {"seed": 111})
        assert run_cli("qkd", "--seed", "777", "--out", "ref") == 0

        monkeypatch.setenv("FWMQKD_SEED", "777")
        assert run_cli("qkd", "--config", cfg, "--out", "env_wins") == 0
        monkeypatch.setenv("FWMQKD_SEED", "999")
        assert run_cli("qkd", "--config", cfg, "--seed", "777", "--out", "cli_wins") == 0
        monkeypatch.delenv("FWMQKD_SEED")
        assert run_cli("qkd", "--config", cfg, "--out", "config_wins") == 0

        ref = (run_cli.cwd / "ref" / "trajectory.csv").read_bytes()
        assert (run_cli.cwd / "env_wins" / "trajectory.csv").read_bytes() == ref
        assert (run_cli.cwd / "cli_wins" / "trajectory.csv").read_bytes() == ref
        assert (run_cli.cwd / "config_wins" / "trajectory.csv").read_bytes() != ref

    def test_seed_accepts_hex_notation(self, run_cli):
        assert run_cli("qkd", "--seed", "0x10", "--out", "hexed") == 0
        assert run_cli("qkd", "--seed", "16", "--out", "plain") == 0
        assert tree_bytes(run_cli.cwd / "hexed") == tree_bytes(run_cli.cwd / "plain")

    @pytest.mark.parametrize("seed", ["-1", "0x10000000000000000"])
    def test_out_of_range_seed_is_a_config_error(self, run_cli, capsys, seed):
        # Either value used to alias an in-range key (2**64 - 1 and 0).
        assert run_cli("detector-check", "--seed", seed, "--out", "d") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err
        assert not (run_cli.cwd / "d").exists()

    def test_a_config_setting_threads_is_rejected_as_an_unknown_key(self, run_cli, capsys, tmp_path):
        # threads is no config key, so it is rejected like any unknown key.
        cfg = _write_config(tmp_path / "threads.json", {"threads": 1})
        assert run_cli("spectra", "--config", cfg, "--out", "s") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "threads" in err
        assert not (run_cli.cwd / "s").exists()

    def test_backend_note_is_printed(self, run_cli, capsys):
        from fwmqkd import BACKEND

        assert run_cli("spectra", "--out", "s") == 0
        assert f"backend: {BACKEND}" in capsys.readouterr().out


def test_bench_is_no_subcommand(run_cli, capsys):
    # Kernel timings come from perfbench/run.py --trace 1, not the CLI.
    with pytest.raises(SystemExit) as exc:
        run_cli("bench")
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


SPECTRA_DIGESTS = {
    "spectra_RRLL_T0.csv": "eed4dcb5fc69146d161660bdfc0ba69d24f87078313f179571bba71c7e0cc7d8",
    "spectra_RRLL_T125.5.csv": "06b605257dcc5ce69d03ce83810672de99ac1bef7ff9ec8ed6abd542841cc980",
    "spectra_RRLL_T400.csv": "52edaa005d6db06160f9e9628322e65c36245c435caff738c010b3de825fd2b3",
    "spectra_RRRR_T0.csv": "3f987f8a6a80e3435d02869e3624918a964dcefb8ab3b5a345a20de56b6367cd",
    "spectra_RRRR_T125.5.csv": "7c45ea2806196d550b5ab762b0e724c9524c9eb16c59868c907bbf2f553ed522",
    "spectra_RRRR_T400.csv": "9087e9100f620c5b62232b6faf887e5cbbc69b55b11723e572bcac152ce0acb6",
    "spectra_RRVH_T0.csv": "b5bcc29ea7db8f00bc325f49cd24e47a8a54777a2aa3566fb9a5989d9ddcbdbc",
    "spectra_RRVH_T125.5.csv": "c4e6d4994b8b8f1b751620ecd8edaae7343b813f21342c300626f40ede549b55",
    "spectra_RRVH_T400.csv": "084497e210b3afb41fa2ee5e890de4a52b5b7698f9149f8137604a60b4f2a7d3",
    # RRVV carries no delay dependence, so its three tables coincide
    "spectra_RRVV_T0.csv": "9f0c3fdd8a89af61be06f19b54a17e95d1b1745e17fcb7d29b6e49c7d0c2fad2",
    "spectra_RRVV_T125.5.csv": "9f0c3fdd8a89af61be06f19b54a17e95d1b1745e17fcb7d29b6e49c7d0c2fad2",
    "spectra_RRVV_T400.csv": "9f0c3fdd8a89af61be06f19b54a17e95d1b1745e17fcb7d29b6e49c7d0c2fad2",
}
CONTRAST_MAP_DIGESTS = {
    "contrast_map.csv": "25d43df1b7d442bcbe95135b0db61bfa4f4947a74bedf1bd2307deb4ab23fa58",
    "ratios.csv": "5c8459f9d0ee051f7835388d52f2c478dc401283fbf702442661c57bb73d722c",
}
RECONSTRUCTION_DIGESTS = {
    "reconstruction.csv": "1b635ad5affd3ffb597af60c229f6feded95a23b6080c779906a205993aaa9ab",
}
SMALL_MAP_RECONSTRUCTION_DIGESTS = {
    "reconstruction.csv": "3636d7f81905c756726c25845dc39dda784b53f2dc37a18b12dd700dbd48abb0",
    "residuals.json": "cb008d94eeebeb6d63221b8129de4fa27adc8502238c3d7908e17ee060890de4",
}
DETECTOR_DIGESTS = {
    "records.csv": "a12080936e9223c834562475036f5fe758ba8bb17b45ac6e40d8ad067a257284",
}
DETECTOR_JSON_DIGEST = "a949ae5c7ef2570249f72b69165b113cb84409b5a5fd40ebb1203de500c81030"
