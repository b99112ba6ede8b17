"""The benchmark's trace spans still name functions of the package."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_an_attsync_attribute():
    # `bench/run.py --trace 1` patches each span by name; a span whose
    # function was renamed or deleted would break the traced run
    spans = load_tracing().SPANS
    assert spans
    for span in spans:
        module_name, _, qualname = span.partition(".")
        owner = importlib.import_module("attsync." + module_name)
        for part in qualname.split("."):
            assert hasattr(owner, part), "span %s: attsync.%s has no %s" % (
                span, module_name, qualname)
            owner = getattr(owner, part)
        assert callable(owner), span
