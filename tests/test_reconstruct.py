"""Grid-search field recovery from two-setting intensity ratios."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import setting_ratios
from fwmqkd.errors import ParameterError
from fwmqkd import reconstruct
from fwmqkd.optics import SETTINGS, intensity_pair
from fwmqkd.reconstruct import (
    DEFAULT_GRID,
    MAX_GRID_CELLS,
    GridSpec,
    ReconstructionMap,
    intensity_ratio,
    reconstruct_map,
)


def _search(a_h, a_v, phi):
    """reconstruct_map's result for the ideal ratio pair of one field."""
    return reconstruct_map(np.column_stack(setting_ratios([a_h], [a_v], [phi])))[0]


def test_intensity_ratio_limits():
    assert intensity_ratio(0.0, 1.0, DEFAULT_GRID.xi) == 0.0
    assert intensity_ratio(1.0, 0.0, DEFAULT_GRID.xi) == pytest.approx(1e9, rel=1e-12)
    assert intensity_ratio(0.5, 0.5, DEFAULT_GRID.xi) == pytest.approx(1.0, rel=3e-9)


def test_intensity_ratio_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        intensity_ratio(-0.1, 0.5, DEFAULT_GRID.xi)
    with pytest.raises(ParameterError):
        intensity_ratio(0.5, -0.1, DEFAULT_GRID.xi)
    with pytest.raises(ParameterError):
        intensity_ratio(0.5, 0.5, xi=0.0)


class TestGridSpec:
    def test_default_axes_have_matched_sizes(self):
        assert len(DEFAULT_GRID.psi_axis()) == 315
        assert len(DEFAULT_GRID.phi_axis()) == 315
        assert DEFAULT_GRID.psi_axis()[0] == 0.0
        assert DEFAULT_GRID.phi_axis()[0] == -math.pi / 2

    def test_axes_stay_inside_their_ranges(self):
        assert DEFAULT_GRID.psi_axis()[-1] <= math.pi / 2
        assert DEFAULT_GRID.phi_axis()[-1] <= math.pi / 2

    def test_only_the_steps_and_xi_are_settable(self):
        assert [f.name for f in dataclasses.fields(GridSpec)] == ["psi_step", "phi_step", "xi"]
        want = -math.pi / 2 + 0.01 * np.arange(315)
        assert DEFAULT_GRID.phi_axis().tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(psi_step=0.0)
        with pytest.raises(ParameterError):
            GridSpec(phi_step=-0.01)
        with pytest.raises(ParameterError):
            GridSpec(xi=0.0)

    def test_cell_count_is_capped_before_any_axis_is_built(self):
        # 315 phi points, so the cap allows at most 31,746 psi points.
        rows = MAX_GRID_CELLS // 315
        GridSpec(psi_step=(math.pi / 2) / (rows - 0.5))
        for psi_step in ((math.pi / 2) / (rows + 0.5), 1e-12, 5e-324):
            with pytest.raises(ParameterError, match="cap"):
                GridSpec(psi_step=psi_step)
        with pytest.raises(ParameterError, match="positive"):
            GridSpec(psi_step=float("nan"))


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(psi_step=0.07, phi_step=0.3, xi=1e-6)],
                         ids=["default", "coarse"])
@pytest.mark.parametrize("rows", [1, 3, 10**9], ids=["one-row", "three-rows", "all-rows"])
def test_ratio_tables_built_in_blocks_equal_the_whole_grid(monkeypatch, grid, rows):
    psi, phi = grid.psi_axis(), grid.phi_axis()
    whole = setting_ratios(np.sin(psi)[:, None], np.cos(psi)[:, None], phi[None, :], grid.xi)
    monkeypatch.setattr(reconstruct, "RATIO_TABLE_BLOCK_CELLS", rows * phi.size)
    got_psi, got_phi, tab0, tab45 = reconstruct._ratio_tables.__wrapped__(grid)
    np.testing.assert_array_equal(got_psi, psi)
    np.testing.assert_array_equal(got_phi, phi)
    for got, want in zip((tab0, tab45), whole):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_roundtrip_lands_within_one_grid_step():
    psi_true, phi_true = math.radians(30.0), 0.25
    result = _search(math.sin(psi_true), math.cos(psi_true), phi_true)
    assert abs(result.psi - psi_true) <= DEFAULT_GRID.psi_step
    assert abs(result.phi - phi_true) <= DEFAULT_GRID.phi_step
    assert not result.degenerate
    assert result.field.a_h == pytest.approx(math.sin(psi_true), abs=0.005)
    assert result.field.a_v == pytest.approx(math.cos(psi_true), abs=0.005)


def test_on_grid_truths_recover_their_exact_node():
    """A truth sitting on a grid node is the unique zero of the squared error.

    This is the resolution guarantee of the search: off-grid truths in the
    flat-phase regions (small A_H*A_V, or |phi| near pi/2 where sin phi
    saturates) can legitimately land several phi steps away, so exactness is
    only promised on the lattice itself.
    """
    psi_axis = DEFAULT_GRID.psi_axis()
    phi_axis = DEFAULT_GRID.phi_axis()
    for i, j in [(20, 5), (100, 160), (157, 300), (250, 40), (294, 220)]:
        result = _search(math.sin(psi_axis[i]), math.cos(psi_axis[i]), float(phi_axis[j]))
        assert result.index == (i, j)
        assert result.se == 0.0
        assert not result.degenerate


def test_pure_vertical_field_is_degenerate_in_phase():
    """With no horizontal amplitude the phase row is flat, so every phi ties."""
    result = _search(0.0, 1.0, 0.7)
    assert result.psi == 0.0
    assert result.degenerate
    assert result.n_ties == len(DEFAULT_GRID.phi_axis())
    # tie break keeps the first grid point in row-major order
    assert result.index == (0, 0)
    assert result.phi == pytest.approx(-math.pi / 2, abs=1e-12)


def test_a_pair_midway_between_two_grid_points_ties_within_tie_eps():
    """gamma_0 does not depend on phi, so a gamma_45 midway between two
    neighbours of a row is equally far from both up to rounding, which
    reconstruct.TIE_EPS absorbs."""
    _, _, tab0, tab45 = reconstruct._ratio_tables(DEFAULT_GRID)
    result = reconstruct_map([(tab0[161, 170], (tab45[161, 170] + tab45[161, 171]) / 2.0)])[0]
    assert result.n_ties == 2
    assert result.index in ((161, 170), (161, 171))


def test_a_grid_point_ties_up_to_tie_eps_and_no_further(monkeypatch):
    """On a one-row table, each pair's minimum SE is 0 and its runner-up's
    SE is a square computed exactly: 1e-6 ** 2 rounds to TIE_EPS itself,
    and 2 ** -19 squared is 2 ** -38, about 3.6e-12."""
    assert 1e-6 * 1e-6 == reconstruct.TIE_EPS < 2.0**-38 < 1e-11
    tab0 = np.zeros((1, 4))
    tab45 = np.array([[0.0, 1e-6, 0.5, 0.5 + 2.0**-19]])
    axes = np.array([0.25]), np.array([-0.5, -0.25, 0.0, 0.25])
    monkeypatch.setattr(reconstruct, "_ratio_tables", lambda grid: (*axes, tab0, tab45))
    result = reconstruct_map([(0.0, 0.0), (0.0, 0.5)])
    assert result.se.tolist() == [0.0, 0.0]
    assert result.i_phi.tolist() == [0, 2]
    assert result.n_ties.tolist() == [2, 1]
    assert result.degenerate.tolist() == [True, False]


def test_reconstruction_tolerates_one_percent_noise():
    rng = np.random.default_rng(99)
    ports = [[float(port[0]) for port in
              intensity_pair([math.sin(0.7)], [math.cos(0.7)], [0.6], theta)]
             for theta in SETTINGS]
    pairs = []
    for _ in range(250):
        pair = []
        for i_h, i_v in ports:
            i_h *= 1.0 + rng.normal(0.0, 0.01)
            i_v *= 1.0 + rng.normal(0.0, 0.01)
            pair.append(intensity_ratio(max(i_h, 0.0), max(i_v, 0.0), DEFAULT_GRID.xi))
        pairs.append(pair)
    assert np.median(abs(reconstruct_map(pairs).phi - 0.6)) <= 0.05


def test_ratios_up_to_the_bound_search_without_overflow():
    # A ratio at MAX_RATIO searches without overflow; the next float up is rejected.
    result = reconstruct_map([[reconstruct.MAX_RATIO, 0.0], [0.0, reconstruct.MAX_RATIO]])
    assert np.isfinite(result.se).all()
    with pytest.raises(ParameterError, match="MAX_RATIO"):
        reconstruct_map([[0.5, 0.5], [np.nextafter(reconstruct.MAX_RATIO, np.inf), 0.5]])
    with pytest.raises(ParameterError, match="MAX_RATIO"):
        reconstruct_map([(1.0, 1e200)])


def test_reconstruct_map_input_validation():
    with pytest.raises(ParameterError):
        reconstruct_map(np.zeros((3, 4)))
    for pair in ((float("nan"), 1.0), (1.0, float("inf")), (-0.5, 1.0)):
        with pytest.raises(ParameterError):
            reconstruct_map([pair])


def _result_bits(result):
    """A ReconstructionResult with its floats as uint64 bits."""
    floats = np.array([result.field.a_h, result.field.a_v, result.field.phi, result.psi, result.se])
    return floats.view(np.uint64).tolist(), result.n_ties, result.index


def _default_grid_pairs():
    """Grid points, midpoints between phi neighbours and the psi = 0 row."""
    _, _, tab0, tab45 = reconstruct._ratio_tables(DEFAULT_GRID)
    rows = np.arange(0, tab0.shape[0], 13)
    cols = rows * 7 % (tab0.shape[1] - 1)
    return np.concatenate([
        np.column_stack([tab0[rows, cols], tab45[rows, cols]]),
        np.column_stack([tab0[rows, cols], (tab45[rows, cols] + tab45[rows, cols + 1]) / 2.0]),
        np.column_stack([tab0[0, :5], tab45[0, :5]]),
    ])


@settings(max_examples=20)
@given(extra=st.lists(st.tuples(st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e9)),
                                st.floats(0.0, 5.0)), max_size=8))
def test_every_item_of_the_column_result_is_its_own_scalar_search(extra):
    pairs = np.concatenate([_default_grid_pairs(), np.array(extra).reshape(-1, 2)])
    result = reconstruct_map(pairs)
    assert len(result) == len(pairs)
    for k, pair in enumerate(pairs):
        assert _result_bits(result[k]) == _result_bits(reconstruct_map([pair])[0])
    # The amplitude columns hold math.sin and math.cos of psi, not np.sin's.
    psi = result.psi.tolist()
    assert result.a_h.view(np.uint64).tolist() == np.array(
        [math.sin(p) for p in psi]).view(np.uint64).tolist()
    assert result.a_v.view(np.uint64).tolist() == np.array(
        [math.cos(p) for p in psi]).view(np.uint64).tolist()
    assert result.psi.tobytes() == DEFAULT_GRID.psi_axis()[result.i_psi].tobytes()
    assert result.phi.tobytes() == DEFAULT_GRID.phi_axis()[result.i_phi].tobytes()


_COLUMN_DTYPES = {"psi": np.float64, "a_h": np.float64, "a_v": np.float64, "phi": np.float64,
                  "se": np.float64, "n_ties": np.int64, "i_psi": np.int64, "i_phi": np.int64}


def test_the_column_result_is_a_sequence_of_its_items():
    g0, g45 = setting_ratios([0.0], [1.0], [0.7])  # degenerate: every phi ties
    result = reconstruct_map([(1.2, 0.9), (g0[0], g45[0]), (0.35, 1.7)])
    assert isinstance(result, ReconstructionMap)
    assert len(result) == 3
    items = list(result)
    assert [_result_bits(r) for r in items] == [_result_bits(result[k]) for k in range(3)]
    assert _result_bits(result[-1]) == _result_bits(items[2])
    assert _result_bits(result[-3]) == _result_bits(items[0])
    for k in (3, -4):
        with pytest.raises(IndexError):
            result[k]
    for name, dtype in _COLUMN_DTYPES.items():
        column = getattr(result, name)
        assert column.dtype == dtype and column.shape == (3,)
    assert result.degenerate.tolist() == [r.degenerate for r in items] == [False, True, False]
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.se = np.zeros(3)


def test_an_empty_batch_gives_empty_columns():
    result = reconstruct_map(np.zeros((0, 2)))
    assert len(result) == 0 and list(result) == []
    for name, dtype in _COLUMN_DTYPES.items():
        column = getattr(result, name)
        assert column.dtype == dtype and column.shape == (0,)
    assert result.degenerate.shape == (0,)
    with pytest.raises(IndexError):
        result[0]


def test_a_psi_step_that_overshoots_pi_over_2_ends_the_axis_at_pi_over_2():
    """psi_step * k rounds one ulp past pi/2 for this step, where cos psi is
    -1.6e-16 and the pair (1e9, 1.0), whose best point is that last row, was
    rejected.  The axis is clamped, so the pair reconstructs."""
    grid = GridSpec(psi_step=0.019883497807530338)
    assert grid.psi_step * (grid.psi_axis().size - 1) > math.pi / 2
    assert grid.psi_axis()[-1] == math.pi / 2
    result = reconstruct_map([(1.0, 1.0), (1e9, 1.0)], grid)
    assert result.i_psi[1] == grid.psi_axis().size - 1
    assert result.psi[1] == math.pi / 2
    assert result.a_v[1] == math.cos(math.pi / 2) >= 0.0
    assert result[1].field.a_v >= 0.0


# Steps of pi/(2k) put the last row at pi/2 up to rounding, so they are where
# an axis can overshoot it; 0.019883497807530338 is pi/(2 * 79).
@given(psi_step=st.one_of(st.floats(1e-4, 1.0),
                          st.integers(2, 15_707).map(lambda k: math.pi / 2.0 / k)))
@example(psi_step=0.019883497807530338)
def test_every_psi_row_has_non_negative_sin_and_cos(psi_step):
    psi = GridSpec(psi_step=psi_step).psi_axis()
    assert psi[0] == 0.0 and psi[-1] <= math.pi / 2
    assert all(math.sin(p) >= 0.0 and math.cos(p) >= 0.0 for p in psi.tolist())
