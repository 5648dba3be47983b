"""The benchmark's tracer still finds every ginlab entry point it wraps.

perfbench/layers.py names its layers as (module, function) and
(module, class, method) strings; a rename inside ginlab would only show
up when someone runs the benchmark with --trace 1.
"""

import importlib
import importlib.util
from pathlib import Path

import ginlab.cli  # imports every module the tracer wraps
from ginlab import linalg
from ginlab.betti import betti_table
from ginlab.parsing import parse_ideal

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    layers = load_layers()
    for mod, fn, layer in layers._FUNCTIONS:
        module = importlib.import_module(f"ginlab.{mod}")
        assert callable(getattr(module, fn, None)), (mod, fn)
        assert layer in layers.LAYERS
    for mod, cls, method, layer in layers._METHODS:
        module = importlib.import_module(f"ginlab.{mod}")
        owner = getattr(module, cls, None)
        assert callable(getattr(owner, method, None)), (mod, cls, method)
        assert layer in layers.LAYERS


def test_tracer_counts_and_restores():
    layers = load_layers()
    original = (linalg.left_kernel, linalg.IntRank.add, ginlab.cli.betti_table)
    tracer = layers.Tracer()
    tracer.install()
    try:
        linalg.left_kernel([{0: 1}, {0: 2}], 1)
        betti_table(parse_ideal("ring poly 2 QQ\nx1^2\nx1*x2\n"))
    finally:
        tracer.uninstall()
    assert (linalg.left_kernel, linalg.IntRank.add, ginlab.cli.betti_table) == original
    metrics = tracer.summary(items=1)
    assert metrics["linalg.left_kernel.calls"][0] == 1
    assert metrics["betti.koszul_betti.calls"][0] >= 1
    assert metrics["linalg.intrank_add.calls"][0] > 2


def test_piece_rows_are_the_rref_add_layer():
    # Rref inherits IntRank's loop; the tracer wraps it on Rref as its own
    # layer, so the rows of a graded piece count there and only there
    layers = load_layers()
    assert linalg.Rref.add is linalg.IntRank.add
    I = parse_ideal("ring poly 2 QQ\nx1^2 + x1*x2\n")
    tracer = layers.Tracer()
    tracer.install()
    try:
        I.piece(3)
    finally:
        tracer.uninstall()
    assert linalg.Rref.add is linalg.IntRank.add
    metrics = tracer.summary(items=1)
    assert metrics["ideals.piece.calls"][0] == 1
    assert metrics["linalg.rref_add.calls"][0] == 2  # x1*g and x2*g
    assert metrics["linalg.intrank_add.calls"][0] == 0
