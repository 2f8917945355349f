"""Self-tests of the benchmark harness, at the workloads' small sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED


def _run(name, workdir, tracer=None):
    go = workloads.prepare(name, SEED, workdir, "small")
    if tracer is None:
        returned = go()
    else:
        with tracer:
            returned = go()
    return workloads.observe(name, workdir, returned)


def _fwmqkd_globals():
    return [
        (module.__name__, attr, value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "fwmqkd" or name.startswith("fwmqkd."))
        for attr, value in vars(module).items()
    ]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_is_byte_identical_and_leaves_no_wrapper(name, tmp_path):
    plain = _run(name, tmp_path / "plain")
    tracer = spans.Tracer()
    traced = _run(name, tmp_path / "traced", tracer)

    assert plain["files"] or plain["fields"]["sessions"]
    assert oracle.check_repeat(plain, traced) == []
    assert oracle.check(name, SEED, "small", traced) == []
    assert tracer.spans, "the trace recorded no span"
    assert not [g for g in _fwmqkd_globals() if hasattr(g[2], spans.WRAPPED_MARK)]


def test_every_target_is_wrapped_at_each_name_callers_use():
    from fwmqkd import _kernels, pipeline, session

    before = {(m, a): id(v) for m, a, v in _fwmqkd_globals()}
    with spans.Tracer():
        for module, attr in ((session, "pulse_randoms"), (pipeline, "pulse_randoms"),
                             (pipeline, "write_csv"), (_kernels, "se_argmin")):
            assert hasattr(getattr(module, attr), spans.WRAPPED_MARK), (module.__name__, attr)
    assert {(m, a): id(v) for m, a, v in _fwmqkd_globals()} == before


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        ("pipeline.run", 0.0, 10.0, -1),
        ("session.run_session", 1.0, 9.0, 0),
        ("kernels.pulse_randoms", 2.0, 5.0, 1),
        ("pipeline.write_csv", 9.0, 10.0, 0),
    ]
    t = tracer.self_times()
    assert t["pipeline.run"] == 1.0
    assert t["session.run_session"] == 5.0
    assert t["kernels.pulse_randoms"] == 3.0
    assert tracer.covered() == 10.0


@pytest.mark.parametrize("name, artifact", [
    ("qkd-long", "qkd/trajectory.csv"),
    ("detector-large", "detector/records.csv"),
    ("field-map", "field/reconstruction.csv"),
])
def test_oracle_rejects_a_corrupted_artifact(name, artifact, tmp_path):
    workdir = tmp_path / "run"
    good = _run(name, workdir)
    assert oracle.check(name, SEED, "small", good) == []

    path = workdir / artifact
    data = bytearray(path.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    bad = workloads.observe(name, workdir)
    assert any(artifact in p for p in oracle.check(name, SEED, "small", bad))
    assert any(artifact in p for p in oracle.check_repeat(good, bad))


def test_oracle_rejects_a_wrong_ensemble_result(tmp_path):
    good = _run("qkd-ensemble", tmp_path)
    bad = json.loads(json.dumps(good))
    bad["fields"]["sessions"][0][2] = "Tar Heal"
    assert oracle.check("qkd-ensemble", SEED, "small", good) == []
    assert oracle.check("qkd-ensemble", SEED, "small", bad)


def _record(backend="numpy", sizes=None):
    return {"workload": "field-map", "trace": 0, "env": {"backend": backend},
            "sizes": sizes or {"points": 1000},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}


def test_compare_refuses_a_different_backend_or_size():
    assert compare.comparable([_record()], [_record()]) is None
    assert "backend" in compare.comparable([_record()], [_record(backend="cython")])
    assert "sizes" in compare.comparable([_record()], [_record(sizes={"points": 10})])
