"""The functions the benchmark's tracer wraps must exist under their names.

perfbench/spans.py looks each of them up by module and name only when a run
traces, so a rename would otherwise surface only there.  This test reads the
list from that file and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_the_tracer_has_targets():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("layer,module_name,attr", [t[:3] for t in TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in TARGETS])
def test_every_traced_function_resolves(layer, module_name, attr):
    func = getattr(importlib.import_module(module_name), attr, None)
    assert callable(func), f"{layer}: {module_name}.{attr} is gone"
