import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from ginlab.cli import main
from ginlab.ideals import Ideal
from ginlab.parsing import ParseError, parse_ideal, render_ideal
from ginlab.rings import (
    EXT,
    POLY,
    TERM_ORDERS,
    Element,
    Ring,
    exponent_vectors,
    render_element,
)

from conftest import ext


def test_basic_poly():
    I = parse_ideal("ring poly 3 QQ\nx1^2\nx2^2, x1*x2*x3^2\nx3^5\n")
    assert len(I.generators) == 4
    assert I.generators[2].degree() == 4


def test_coefficients_and_signs():
    I = parse_ideal("ring poly 2 QQ\n3*x1^2 - 1/2*x1*x2 + x2^2\n")
    g = I.generators[0]
    # generators are normalized to coprime integer coefficients
    assert g.terms == {(2, 0): 6, (1, 1): -1, (0, 2): 2}


def test_powers():
    I = parse_ideal("ring poly 2 QQ\nx1^200000\nx2^0*x1^3*x2^2*x1\n")
    assert I.generators[0].terms == {(200000, 0): 1}
    assert I.generators[1].terms == {(4, 2): 1}
    I = parse_ideal("ring ext 3 QQ\ne3^1*e1^0*e2\n")
    assert I.generators[0].terms == {ext(3, 1, 2): -1}
    with pytest.raises(ParseError, match="square to zero"):
        parse_ideal("ring ext 3 QQ\ne2^2\n")


def test_exterior():
    I = parse_ideal("ring ext 4 QQ\ne1*e2\ne2*e3 - e1*e4\n")
    assert I.ring.is_exterior
    assert I.generators[0].terms == {ext(4, 0, 1): 1}
    assert I.generators[1].terms == {ext(4, 1, 2): 1, ext(4, 0, 3): -1}


def test_exterior_sign_normalization():
    I = parse_ideal("ring ext 3 QQ\ne2*e1\n")
    assert I.generators[0].terms == {ext(3, 0, 1): -1}


def test_comments_and_blanks():
    I = parse_ideal("# header comment\nring poly 2 QQ\n\n# gen\nx1  # tail\n")
    assert len(I.generators) == 1


def test_order_field():
    I = parse_ideal("ring poly 2 QQ lex\nx1\n")
    assert I.ring.order == "lex"


def test_inhomogeneous_rejected():
    with pytest.raises(ParseError, match="inhomogeneous"):
        parse_ideal("ring poly 2 QQ\nx1^2 + x2\n")


def test_variable_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_ideal("ring poly 2 QQ\nx3\n")


def test_unknown_variable_prefix():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_ideal("ring poly 2 QQ\ne1\n")


def test_syntax_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_ideal("ring poly 2 QQ\nx1\nx2 $ x1\n")
    assert (err.value.line, err.value.col) == (3, 4)
    # the column is the token's, not the whitespace's before it
    with pytest.raises(ParseError, match="denominator") as err:
        parse_ideal("ring poly 2 QQ\n3 / 0 * x1\n")
    assert (err.value.line, err.value.col) == (2, 5)


def test_column_counts_from_the_start_of_the_line():
    # generators after a comma, and indented lines, keep their columns
    for text, col in (("x1, x2 $", 8), ("x1,x2,  x1 x2", 12), ("  x1 $", 6)):
        with pytest.raises(ParseError) as err:
            parse_ideal(f"ring poly 2 QQ\n{text}\n")
        assert (err.value.line, err.value.col) == (2, col), text


@pytest.mark.parametrize("line, col", [
    ("1" * 5000 + "*x1", 1),
    ("x1 + " + "1" * 5000 + "/2*x2", 6),
    ("x1 + 3/" + "1" * 5000 + "*x2", 8),
    ("x" + "1" * 5000, 1),
])
def test_overlong_integers_are_parse_errors(line, col, tmp_path):
    # past Python's limit on the digits of int(str)
    with pytest.raises(ParseError, match="too long") as err:
        parse_ideal(f"ring poly 2 QQ\n{line}\n")
    assert (err.value.line, err.value.col) == (2, col)
    path = tmp_path / "ideal.txt"
    path.write_text(f"ring poly 2 QQ\n{line}\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main(["lex", str(path)]) == 1
    assert stderr.getvalue().startswith("parse error:")


@pytest.mark.parametrize(
    "line, col",
    [("x1^2 x2^2", 6), ("x1 x2 - x2^2", 4), ("2x1", 2), ("x1 2", 4)],
)
def test_implicit_product_refused(line, col):
    with pytest.raises(ParseError) as err:
        parse_ideal(f"ring poly 2 QQ\n{line}\n")
    assert (err.value.line, err.value.col) == (2, col)


def test_zero_generator_rejected():
    # a vanishing product stays zero through the factors after it
    for line in ("e1*e1", "e1*e1*e2", "e2*e1*e2", "0*e1"):
        with pytest.raises(ParseError, match="zero"):
            parse_ideal(f"ring ext 2 QQ\n{line}\n")


def test_missing_header():
    with pytest.raises(ParseError, match="ring header"):
        parse_ideal("# nothing\n")


def test_bad_header():
    with pytest.raises(ParseError):
        parse_ideal("ring weird 3 QQ\nx1\n")


def test_empty_ideal_allowed():
    I = parse_ideal("ring poly 2 QQ\n")
    assert I.is_zero()


def test_round_trip():
    text = "ring poly 3 QQ\nx1^2\n2*x1*x2 - 3*x3^2\n"
    I = parse_ideal(text)
    again = parse_ideal(render_ideal(I))
    assert [g.terms for g in again.generators] == [g.terms for g in I.generators]
    assert again.ring == I.ring


def test_round_trip_exterior():
    I = parse_ideal("ring ext 4 QQ\ne1*e3 - e2*e4\ne1*e2*e3\n")
    again = parse_ideal(render_ideal(I))
    assert [g.terms for g in again.generators] == [g.terms for g in I.generators]


# ---------------------------------------------------------------------------
# the exit-code contract over generated ideal files


@st.composite
def ideals(draw):
    """A ring over S or E with up to 3 variables, and up to 3 homogeneous
    generators with small rational coefficients."""
    kind = draw(st.sampled_from([POLY, EXT]))
    n = draw(st.integers(1, 3))
    ring = Ring(kind, n, draw(st.sampled_from(TERM_ORDERS)))
    coeff = st.fractions(-9, 9, max_denominator=6).filter(bool)
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(0, n if kind == EXT else 3))
        monos = exponent_vectors(n, d, squarefree=kind == EXT)
        support = draw(st.lists(st.sampled_from(monos), min_size=1, unique=True))
        gens.append(Element(ring, {m: draw(coeff) for m in support}))
    return ring, gens


@given(ideals())
@settings(max_examples=80, deadline=None)
def test_render_parse_round_trip(drawn):
    ring, gens = drawn
    I = Ideal(ring, gens)
    assert parse_ideal(render_ideal(I)).generators == I.generators
    # the raw generators, p/q coefficients and all, parse to the same ideal
    raw = render_ideal(Ideal.zero(ring)) + "".join(
        render_element(g) + "\n" for g in gens
    )
    again = parse_ideal(raw)
    assert again.ring == ring and again.generators == I.generators


HEADERS = ["ring poly 3 QQ", "ring ext 3 QQ lex", "ring poly 2 QQ", "ring ext", ""]
ideal_texts = st.builds(
    "{}\n{}".format,
    st.sampled_from(HEADERS),
    st.text(alphabet="xe0123456789 +-*/^,#\n$", max_size=40),
)


@given(ideal_texts)
@settings(max_examples=300, deadline=None)
def test_parse_ends_in_an_ideal_or_a_parse_error(text):
    try:
        result = parse_ideal(text)
    except ParseError:
        return
    assert isinstance(result, Ideal)


def refused(text):
    try:
        parse_ideal(text)
    except ParseError:
        return True
    return False


@given(ideal_texts.filter(refused))
@settings(max_examples=40, deadline=None)
def test_cli_exits_1_on_a_refused_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("refused") / "ideal.txt"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["lex", str(path)])
    assert code == 1
    assert err.getvalue().startswith("parse error:")
