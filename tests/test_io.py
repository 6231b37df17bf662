import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltmat.errors import FormatError
from tiltmat.io import (
    float_repr,
    format_matrix,
    format_vector,
    parse_matrix,
    parse_vector,
)


def test_csv_matrix_round_trip():
    arr = np.array([[0.1, 2.0 / 3.0], [1e-17, 123456.789]])
    again = parse_matrix(format_matrix(arr, "csv"))
    assert np.array_equal(arr, again)


def test_structured_matrix_round_trip():
    arr = np.array([[0.25, 0.5, 0.25]])
    text = format_matrix(arr, "structured")
    payload = json.loads(text)
    assert payload["rows"] == 1 and payload["cols"] == 3
    assert np.array_equal(parse_matrix(text), arr)


def test_vector_round_trips():
    vec = np.array([1.0, 1.0 / 3.0, 7.25])
    assert np.array_equal(parse_vector(format_vector(vec, "csv")), vec)
    assert np.array_equal(parse_vector(format_vector(vec, "structured")), vec)


def test_float_repr_shortest_round_trip():
    rng = np.random.default_rng(7)
    for x in list(rng.uniform(-1e6, 1e6, 50)) + [0.1, 1.0 / 3.0, 2.0 ** -40]:
        assert float(float_repr(float(x))) == float(x)


def test_csv_skips_comments_and_blank_lines():
    text = "# header comment\n\n1.0,2.0\n\n# more\n3.0,4.0\n"
    assert np.array_equal(parse_matrix(text), [[1.0, 2.0], [3.0, 4.0]])


def test_format_sniffing_with_leading_whitespace():
    text = '\n  {"rows": 1, "cols": 2, "data": [[1.0, 2.0]]}'
    assert np.array_equal(parse_matrix(text), [[1.0, 2.0]])
    assert np.array_equal(parse_vector("  [1.0, 2.5]"), [1.0, 2.5])


def test_one_column_csv_reads_as_vector():
    assert np.array_equal(parse_vector("1.0\n2.0\n3.0\n"), [1.0, 2.0, 3.0])


def test_ragged_rows_rejected():
    with pytest.raises(FormatError):
        parse_matrix("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError, match=r"^data row 1 must be a list of 2 numbers$"):
        parse_matrix('{"rows": 2, "cols": 2, "data": [[1, 2], [3]]}')


def test_bad_number_rejected():
    with pytest.raises(FormatError, match="not a number"):
        parse_matrix("1.0,two\n")


def test_empty_input_rejected():
    with pytest.raises(FormatError):
        parse_matrix("# only comments\n")


def test_structured_matrix_requires_fields():
    with pytest.raises(FormatError, match="missing"):
        parse_matrix('{"rows": 2, "data": [[1.0], [2.0]]}')
    with pytest.raises(FormatError):
        parse_matrix('{"rows": 2, "cols": 1, "data": [[1.0]]}')
    with pytest.raises(FormatError):
        parse_matrix('{"rows": 1, "cols": 2, "data": [[1.0, "x"]]}')


def test_structured_matrix_ignores_extra_fields():
    text = '{"rows": 1, "cols": 2, "data": [[0.5, 0.5]], "stationary": [1.0]}'
    assert np.array_equal(parse_matrix(text), [[0.5, 0.5]])


def test_matrix_array_json_rejected():
    # a bare array is the vector encoding, not a matrix
    with pytest.raises(FormatError):
        parse_matrix("[1.0, 2.0]")
    with pytest.raises(FormatError):
        parse_vector('{"rows": 1, "cols": 2, "data": [[1.0, 2.0]]}')


def test_invalid_json_rejected():
    with pytest.raises(FormatError, match="invalid JSON"):
        parse_matrix('{"rows": 1,')
    with pytest.raises(FormatError):
        parse_vector("[1.0,")


def test_vector_shape_rejected():
    with pytest.raises(FormatError, match="expected a vector"):
        parse_vector("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(FormatError):
        parse_vector("[]")


def test_format_rejects_unknown_name():
    with pytest.raises(ValueError):
        format_matrix(np.eye(2), "yaml")
    with pytest.raises(ValueError):
        format_vector(np.ones(2), "yaml")


def test_format_rejects_the_wrong_number_of_dimensions():
    with pytest.raises(ValueError, match=r"^expected a 2-D array, got ndim=1$"):
        format_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match=r"^expected a 1-D array, got ndim=2$"):
        format_vector([[1.0]])


@pytest.mark.parametrize(
    "text",
    [
        '{"rows": true, "cols": 1, "data": [[1]]}',
        '{"rows": 1, "cols": true, "data": [[1]]}',
        '{"rows": false, "cols": 1, "data": []}',
    ],
)
def test_structured_matrix_rejects_bool_dimensions(text):
    # bool is an int subclass; rows=true used to reach numpy as a TypeError
    with pytest.raises(FormatError, match="positive integers"):
        parse_matrix(text)


@pytest.mark.parametrize("parse", [parse_matrix, parse_vector])
@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_deeply_nested_json_rejected(parse, opener):
    # json.loads raises RecursionError long before the text ends
    with pytest.raises(FormatError):
        parse(opener * 100_000)


def test_out_of_range_json_integers_rejected():
    with pytest.raises(FormatError, match="beyond the float range"):
        parse_vector("[" + "9" * 400 + "]")
    with pytest.raises(FormatError, match="beyond the float range"):
        parse_matrix('{"rows": 1, "cols": 1, "data": [[' + "9" * 400 + "]]}")
    # past Python's int-string digit limit json.loads itself refuses
    with pytest.raises(FormatError, match="invalid JSON"):
        parse_vector("[" + "9" * 5000 + "]")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["rows", "cols", "data", "x"]), inner, max_size=4
    ),
    max_leaves=20,
)
MATRIX_OBJECTS = st.fixed_dictionaries(
    {
        "rows": st.one_of(st.integers(-2, 4), st.booleans(), st.floats(), st.none()),
        "cols": st.one_of(st.integers(-2, 4), st.booleans(), st.floats(), st.none()),
        "data": JSON_VALUES,
    }
)
CSV_LIKE = st.text(alphabet="0123456789.,-+eEinfaN#[]{}\"\n \t", max_size=60)
HOSTILE_TEXT = st.one_of(
    st.text(max_size=60),
    CSV_LIKE,
    JSON_VALUES.map(json.dumps),
    MATRIX_OBJECTS.map(json.dumps),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(HOSTILE_TEXT)
def test_parsers_return_an_array_or_raise_format_error(text):
    for parse in (parse_matrix, parse_vector):
        try:
            out = parse(text)
        except FormatError:
            continue
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.ndim == (2 if parse is parse_matrix else 1) and out.size >= 1
