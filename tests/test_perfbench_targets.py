"""The functions the benchmark's tracer wraps must exist under their names.

perfbench/spans.py looks each of them up by module and name only when a run
traces, so a rename would otherwise surface only there.  This test reads the
list from that file and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _spans().TARGETS


def test_the_tracer_has_targets():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("layer,module_name,attr", [t[:3] for t in TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in TARGETS])
def test_every_traced_function_resolves(layer, module_name, attr):
    func = getattr(importlib.import_module(module_name), attr, None)
    assert callable(func), f"{layer}: {module_name}.{attr} is gone"


def test_a_default_detector_check_still_calls_gain_from_uniform(run_cli):
    # At g2 > 1 only the pulses the gain-knot bracket leaves undecided reach
    # gain_from_uniform.  With the table already cached, a traced run must
    # still show those calls, so the layer cannot silently read 0.
    from fwmqkd.config import DEFAULTS
    from fwmqkd.photons import gain_cells

    assert DEFAULTS["detector_check"]["g2_target"] > 1.0
    gain_cells(DEFAULTS["detector_check"]["g2_target"])
    with _spans().Tracer() as tracer:
        assert run_cli("detector-check", "--out", "out") == 0
    calls = [s for s in tracer.spans if s[0] == "photons.gain_from_uniform"]
    pulses = 2 * DEFAULTS["detector_check"]["pulses"]
    draws = tracer.counts["kernels.poisson_counts.draws"]
    assert calls and tracer.self_times()["photons.gain_from_uniform"] > 0.0
    # Each fallback pulse is drawn once per port, and they are a small share.
    assert 0 < draws < 0.01 * 2 * pulses


def test_a_reconstruct_run_searches_every_live_pair_in_one_call(run_cli, tmp_path):
    # The reconstruct_map and se_argmin layers stay measured only while a
    # run hands the search every live pair at once.
    from fwmqkd import pipeline

    src = tmp_path / "ratios.csv"
    src.write_text(
        "T_fs,lambda_nm,gamma_0,gamma_45\n"
        "500.0,520.0,0.0,0.9999999980000005\n"
        "0.0,510.0,0.35,1.7\n"
        "0.0,520.0,-0.5,0.9\n"
        "0.0,500.0,1.2,0.9\n"
        "500.0,500.0,0.8,1.1\n"
    )
    with _spans().Tracer() as tracer, \
            mock.patch.object(pipeline, "reconstruct_map", wraps=pipeline.reconstruct_map) as spy:
        assert run_cli("reconstruct", "--input", str(src), "--out", "out") == 0
    (pairs, _), _ = spy.call_args
    np.testing.assert_array_equal(pairs, [[1.2, 0.9], [0.35, 1.7], [0.8, 1.1],
                                          [0.0, 0.9999999980000005]])
    layers = [s[0] for s in tracer.spans]
    assert spy.call_count == layers.count("reconstruct.reconstruct_map") == 1
    assert layers.count("kernels.se_argmin") == 1
    assert tracer.counts["reconstruct.reconstruct_map.pairs"] == 4
    assert tracer.counts["reconstruct.degenerate_cells"] == 1
