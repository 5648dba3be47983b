
import pytest

from ginlab.parsing import ParseError, parse_ideal, render_ideal

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
    assert err.value.line == 3


def test_zero_generator_rejected():
    with pytest.raises(ParseError, match="zero"):
        parse_ideal("ring ext 2 QQ\ne1*e1\n")


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
