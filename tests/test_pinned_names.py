"""The names the benchmark's layer tracer looks up in edgekt.

``bench/tracer.py`` wraps each ``SPANNED`` and ``COUNTED`` entry where it is
defined: a method in its class ``__dict__``, a module-level function in every
edgekt module that imports it by name. Its counters read a few attributes of
the objects they see. A rename or move of any of these breaks the benchmark,
so this suite checks them without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from edgekt import detection, harness, models, netproto, runtime
from edgekt.selector import KeyFrameSelector

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_edgekt_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


_T = _tracer()


@pytest.mark.parametrize("layer, module, path", _T.SPANNED + _T.COUNTED,
                         ids=[entry[0] for entry in _T.SPANNED + _T.COUNTED])
def test_traced_name_is_held_by_its_owner(layer, module, path):
    holder = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(holder, cls_name))
    else:
        assert callable(vars(holder).get(path))


def test_imported_by_name_functions_are_the_defining_modules():
    # the tracer patches a function in every edgekt namespace that holds it,
    # so the callers must hold the defining module's object, not a copy
    assert harness.decode_boxes is detection.decode_boxes
    assert harness.adapt_decoder is runtime.adapt_decoder is models.adapt_decoder


def test_counter_hooks_read_existing_attributes():
    assert KeyFrameSelector(seed=0).busy is False
    assert isinstance(vars(netproto.TransmitResult)["size_bytes"], property)
    assert netproto.FrameUpload.__name__ == "FrameUpload"
    assert isinstance(netproto.TYPE_ACK, int) and netproto.AckStatus.ERROR is not None
