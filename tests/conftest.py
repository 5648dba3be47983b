import importlib.util
from pathlib import Path

import pytest

from ginlab.parsing import parse_ideal

# The three reference ideals every suite keeps coming back to: a
# three-variable staircase with a degree-5 tail, a four-variable ideal
# with exactly two cancellations, and a four-variable ideal whose first
# linear strand differs from its gin while the higher strands agree.
STAIRCASE_3 = "ring poly 3 QQ\nx1^2\nx2^2\nx1*x2*x3^2\nx3^5\n"
CANCEL_4 = (
    "ring poly 4 QQ\n"
    "x1^3\nx1^2*x2\nx1*x2^2\nx2^3\nx1^2*x3\nx1*x3*x4\n"
)
STRAND_4 = "ring poly 4 QQ\nx1*x4^2\nx2^3\nx2^2*x3\n"

STAIRCASE_GIN = ["x1^2", "x1*x2", "x2^3", "x2^2*x3^2", "x1*x3^4", "x2*x3^5", "x3^6"]
CANCEL_GIN = ["x1^3", "x1^2*x2", "x1*x2^2", "x2^3", "x1^2*x3", "x1*x2*x3", "x1*x3^3"]


@pytest.fixture
def staircase3():
    return parse_ideal(STAIRCASE_3)


@pytest.fixture
def cancel4():
    return parse_ideal(CANCEL_4)


@pytest.fixture
def strand4():
    return parse_ideal(STRAND_4)


def load_perfbench(name):
    """A module of the benchmark harness, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
