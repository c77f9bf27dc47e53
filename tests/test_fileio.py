"""Text round-trips for complexes and matchings."""

import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from morsematch import (
    ParseError,
    dunce_hat,
    from_maximal_simplices,
    parse_complex,
    parse_matching,
    read_complex,
    rp2,
    serialize_complex,
    serialize_matching,
    simplex_boundary,
    write_complex,
)
from morsematch.fileio import read_matching
from helpers import reference_parse_complex


def test_parse_single_facet():
    K = parse_complex("0 1 2\n")
    assert K.n == 7
    assert K == from_maximal_simplices([(0, 1, 2)])


def test_parse_skips_comments_and_blanks():
    text = "# boundary of a triangle\n\n0 1\n1 2\n\n# last edge\n0 2\n"
    K = parse_complex(text)
    assert K.n == 6


def test_parse_unsorted_vertices():
    assert parse_complex("2 0 1\n") == parse_complex("0 1 2\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1: bad vertex id 'x'"):
        parse_complex("x 1\n")
    with pytest.raises(ParseError, match="line 1: repeated vertex"):
        parse_complex("0 0 1\n")
    with pytest.raises(ParseError, match="no simplices in input"):
        parse_complex("# nothing here\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_complex("0 1\n1 2\n1 1\n")


@pytest.mark.parametrize("tok", ["-1", "+1", "1_0"])
def test_vertex_ids_are_plain_decimal_digits(tok):
    # int() would take all three; the format allows only ASCII digits.
    want = re.escape(f"line 2: bad vertex id '{tok}'")
    with pytest.raises(ParseError, match=want):
        parse_complex(f"0 1\n{tok} 3\n")
    with pytest.raises(ParseError, match=want):
        parse_matching(f"0 ; 0 1\n{tok} ; {tok} 3\n")


def test_serialize_writes_maximal_simplices_only():
    K = from_maximal_simplices([(0, 1, 2)])
    assert serialize_complex(K) == "0 1 2\n"


def test_complex_round_trip():
    for K in (rp2(), dunce_hat(), simplex_boundary(3)[0]):
        assert parse_complex(serialize_complex(K)) == K


def test_matching_round_trip():
    _, matching = simplex_boundary(3)
    text = serialize_matching(matching.pairs)
    assert frozenset(parse_matching(text)) == matching.pairs


def test_matching_format_is_one_pair_per_line():
    text = serialize_matching({((0,), (0, 1))})
    assert text == "0 ; 0 1\n"
    assert parse_matching("0 ; 0 1\n") == [((0,), (0, 1))]


def test_matching_parse_errors():
    with pytest.raises(ParseError, match="expected 'face ; coface'"):
        parse_matching("0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matching("0 ; 0 1\n0 ; ; 1\n")
    with pytest.raises(ParseError, match="line 2: no vertices"):
        parse_matching("0 ; 0 1\n; 0 1\n")


def test_matching_parse_skips_comments_and_blanks():
    text = "# a matching\n\n0 ; 0 1\n   \n# done\n1 ; 1 2\n"
    assert parse_matching(text) == [((0,), (0, 1)), ((1,), (1, 2))]


@pytest.fixture
def int_digit_limit():
    # Python's default limit on the digits int() converts; 3.10 releases
    # before 3.10.7 have none, and then no id is too long.
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer string conversion limit in this interpreter")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "name, text, read",
    [
        ("complex.txt", "0 1\n0 {big}\n", read_complex),
        ("matching.txt", "0 ; 0 1\n0 ; 0 {big}\n", read_matching),
    ],
    ids=["complex", "matching"],
)
def test_a_vertex_id_over_the_digit_limit_is_a_parse_error(
    tmp_path, int_digit_limit, name, text, read
):
    path = tmp_path / name
    path.write_text(text.format(big="9" * 5000))
    with pytest.raises(ParseError) as exc:
        read(path)
    assert str(exc.value) == f"{path}: line 2: vertex id of 5000 digits is too long"


def test_file_round_trip(tmp_path):
    K = rp2()
    path = tmp_path / "rp2.txt"
    write_complex(K, path)
    assert read_complex(path) == K
    assert path.read_text().endswith("\n")


def test_reading_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("0 1\n1 2 # caf\xe9\n".encode("latin-1"))
    with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text")):
        read_complex(path)


def test_serialization_is_stable():
    K = dunce_hat()
    assert serialize_complex(K) == serialize_complex(parse_complex(serialize_complex(K)))


def parse_outcome(parse, text):
    """The complex's ids and incidence, or the type and message of the ValueError raised."""
    try:
        K = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return K.vertices, K.simplices, K.facet_ids, K.cofacet_ids


# Vertex ids small and past 2**64, drawn into rows in any order.
VERTICES = [0, 1, 2, 3, 7, 10, 2**64, 2**64 + 3, 10**30]
ROWS = st.lists(st.sampled_from(VERTICES), min_size=1, max_size=5, unique=True)
# Lines that are not rows: blank, whitespace only, and # comments, indented
# too, some holding ids that no row has.
FILLERS = ["", "   ", "\t", "# a comment", "  # 0 1 2", "\t#", "#x 0", "# 5 99"]
# Line ends that splitlines breaks on, and whitespace between tokens.
EOLS = ["\n", "\r\n", "\x1c", "\u2028"]
SEPS = [" ", "\t", "  ", " \t "]
# One faulty line each: a repeated vertex (also through a leading zero), a
# bad token, an id past the interpreter's digit limit, a non-ASCII digit.
FAULTS = ["4 2 4", "7 07", "1 x 2", "0 " + "9" * 5000, "1 \u0661"]


@st.composite
def row_lines(draw):
    """Text lines of rows, with leading zeros and mixed spacing, and filler lines between."""
    lines = []
    for row in draw(st.lists(ROWS, min_size=1, max_size=8)):
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        tokens = ["0" * draw(st.integers(0, 2)) + str(v) for v in row]
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + draw(st.sampled_from(SEPS)).join(tokens) + draw(st.sampled_from(["", " "])))
    return lines


def join_lines(draw, lines) -> str:
    ends = draw(st.lists(st.sampled_from(EOLS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(row_lines(), st.data())
def test_parse_equals_the_per_line_reference(lines, data):
    text = join_lines(data.draw, lines)
    assert parse_outcome(parse_complex, text) == parse_outcome(reference_parse_complex, text)


@settings(
    derandomize=True, deadline=None, database=None, max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(row_lines(), st.sampled_from(FAULTS), st.sampled_from(FAULTS), st.data())
def test_parse_errors_equal_the_per_line_reference(int_digit_limit, lines, first, second, data):
    # Two faults on different lines, in both orders: the first in line order wins.
    i = data.draw(st.integers(0, len(lines)))
    j = data.draw(st.integers(i, len(lines)))
    for a, b in ((first, second), (second, first)):
        faulty = lines[:i] + [a] + lines[i:j] + [b] + lines[j:]
        text = join_lines(data.draw, faulty)
        want = parse_outcome(reference_parse_complex, text)
        assert want[0] is ParseError
        assert parse_outcome(parse_complex, text) == want


def test_a_fault_after_an_oversized_line_is_a_parse_error():
    # The 30-vertex line alone is refused by the closure cap, but a parse
    # error on any later line comes first.
    big = " ".join(map(str, range(30)))
    for text, want in [
        (f"{big}\n", (ValueError, "closure would be over the cap of 1048576 simplices")),
        (f"{big}\n0 1\n2 x\n", (ParseError, "line 3: bad vertex id 'x'")),
        (f"{big}\n# ok\n5 5\n", (ParseError, "line 3: repeated vertex in '5 5'")),
    ]:
        assert parse_outcome(parse_complex, text) == parse_outcome(reference_parse_complex, text) == want
