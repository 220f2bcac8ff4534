"""The benchmark tracer still finds every name it wraps.

``bench/tracing.py`` replaces package functions and methods by name while it
is installed; a rename in the package must fail here, in the unit tests,
not only in the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists_and_is_restored():
    tracing = load_tracing()
    patched = [*tracing.SPANNED, (tracing.encoder, "lstm_step"),
               (tracing.autodiff.Tape, "record")]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr in patched}
    with tracing.Tracer().installed():
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original, attr
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr
