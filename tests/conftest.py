"""Shared fixtures and small file helpers for the test suite."""

import json
from pathlib import Path

import pytest
from hypothesis import settings

from fwmqkd import cli
from fwmqkd.optics import SETTINGS, intensity_pair
from fwmqkd.reconstruct import DEFAULT_GRID, intensity_ratio

# Property tests draw a fixed example sequence and keep no example database,
# so a result never depends on the search or on a local .hypothesis/ store.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def run_cli(tmp_path, monkeypatch):
    """In-process CLI runner working inside an isolated temp directory.

    Returns a callable taking argv fragments and returning the exit code.
    The temp directory is exposed as ``runner.cwd``.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FWMQKD_OUTPUT_DIR", raising=False)
    monkeypatch.delenv("FWMQKD_SEED", raising=False)

    def _run(*args):
        return cli.main([str(a) for a in args])

    _run.cwd = tmp_path
    return _run


def read_csv(path):
    """Split one of our CSVs into (header list, list of cell-string rows)."""
    text = Path(path).read_text()
    assert text.endswith("\n"), f"{path} missing trailing newline"
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_json(path):
    return json.loads(Path(path).read_text())


def tree_bytes(root):
    """Map of relative path -> file bytes for every file under root."""
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def setting_ratios(a_h, a_v, phi, xi=DEFAULT_GRID.xi):
    """Ideal ratio arrays (Gamma at 0, Gamma at 45 deg) of a batch of fields,
    computed as reconstruct's tables compute theirs."""
    return tuple(intensity_ratio(*intensity_pair(a_h, a_v, phi, theta), xi) for theta in SETTINGS)
