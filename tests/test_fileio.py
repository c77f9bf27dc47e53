"""Text round-trips for complexes and matchings."""

import re
import sys

import pytest

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
