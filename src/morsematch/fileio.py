"""Plain-text formats for complexes and matchings.

Both formats share one line grammar: lines are numbered from 1 for error
messages, a line starting with `#` is a comment, and blank lines are
skipped.

A complex file lists one maximal simplex per line as whitespace-separated
vertex ids, each a run of ASCII decimal digits (so non-negative).  The
parser rebuilds the downward closure, so parse(serialize(K)) == K.  It
takes the text straight to packed keys (see complexes) in bulk passes,
with no Python loop per line or per vertex: token counts per line, one
check and one int() per distinct token, one rank map, and one increase
check per pair of rank columns.  The keys enter the closure through
complexes._close, as from_maximal_simplices does.  The per-line
validator, _parse_vertices, is the error locator: when a bulk check
fails, it runs over the lines and raises the first fault in line order,
so every message, and its precedence over the closure cap, is as if the
text were read one line at a time.  Matching files are read that way.

A matching file has one pair per line, face and coface separated by a
semicolon: "0 1 ; 0 1 2".
"""
from __future__ import annotations

from itertools import chain, compress, repeat
from operator import contains, eq, lt

from .complexes import SimplicialComplex, Simplex, _close, _join, _refuse_past_cap, canonical_key


class ParseError(ValueError):
    """Malformed input text; the message carries the line number."""


def _parse_vertices(token_text: str, lineno: int) -> Simplex:
    verts = []
    try:
        for tok in token_text.split():
            if not (tok.isascii() and tok.isdigit()):
                raise ParseError(f"line {lineno}: bad vertex id {tok!r}")
            verts.append(int(tok))
    except ParseError:
        raise
    except ValueError:  # int() refuses ids past the interpreter's digit limit
        raise ParseError(f"line {lineno}: vertex id of {len(tok)} digits is too long") from None
    if not verts:
        raise ParseError(f"line {lineno}: no vertices")
    if len(set(verts)) != len(verts):
        raise ParseError(f"line {lineno}: repeated vertex in {token_text.strip()!r}")
    return tuple(sorted(verts))


def _lines(text: str):
    """(line number from 1, stripped line) for each line that is not blank or a # comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _columns(text: str):
    """(labels, bits, per dimension the rank columns of its rows), or None if a check fails.

    A text without rows raises ParseError at once, and one whose longest
    row is past the closure cap raises the cap's ValueError as soon as
    the rows are counted, after the per-line validator has found no fault
    (_first_fault), so a ParseError still comes first and no token of the
    text is ranked.  Each line is split once, only to count its tokens,
    and the line list goes before the tokens come from one split of the
    text.  A comment line (its first token starts with '#') keeps its
    count but has row length 0: its tokens stay in the token list and are
    left out of the distinct tokens and of every level, so the text is
    never copied.  The distinct tokens are checked together, as digits on
    their join and by int() one by one, and a dict maps each to its rank,
    so "07" and "7" get the same one.  The rows of k vertices are sliced
    into k columns, and one pass of lt per column pair checks that ranks
    increase, which also catches a repeated vertex; only a level that
    fails has its rows sorted and checked again.  Few lists as long as
    the tokens are alive at once: one more during the parse (a per-token
    row length, or an offset per row) raised the peak resident size of a
    bench run over 30k simplices by about 2%, though the build's is the
    traced peak.
    """
    lines = text.splitlines()
    lens = counts = [*map(len, map(str.split, lines))]
    if "#" in text:
        lens = counts.copy()
        for i in compress(range(len(lines)), map(contains, lines, repeat("#"))):
            if lines[i].lstrip()[0] == "#":
                lens[i] = 0
    del lines
    sizes = set(lens)
    sizes.discard(0)
    if not sizes:
        raise ParseError("no simplices in input")
    try:
        _refuse_past_cap(max(sizes))
    except ValueError:
        _first_fault(text)
        raise
    tokens = text.split()
    if lens is counts:
        distinct = [*set(tokens)]
    else:  # only the tokens of rows
        distinct = [*set(compress(tokens, _per_token(map(bool, lens), counts)))]
    joined = "".join(distinct)
    if not (joined.isascii() and joined.isdigit()):
        return None
    try:
        values = [*map(int, distinct)]
    except ValueError:  # past the interpreter's digit limit
        return None
    labels = tuple(sorted(set(values)))
    rank = dict(zip(labels, range(len(labels)))).__getitem__
    to_rank = dict(zip(distinct, map(rank, values)))
    # A token only a comment has ranks as None, and no level keeps it.
    ranks = [*map(to_rank.__getitem__ if lens is counts else to_rank.get, tokens)]
    del tokens, distinct, values, to_rank
    columns = []
    for k in range(1, max(sizes) + 1):
        if k not in sizes:
            rows = []
        elif len(sizes) == 1 and lens is counts:
            rows = ranks
        else:  # the tokens of the rows of k vertices, kept by a per-line flag repeated per token
            rows = [*compress(ranks, _per_token(map(eq, lens, repeat(k)), counts))]
        level = [rows[i::k] for i in range(k)]
        if not _increasing(level):
            level = [*map(list, zip(*map(sorted, zip(*level))))]
            if not _increasing(level):
                return None
        columns.append(level)
    return labels, max(1, (len(labels) - 1).bit_length()), columns


def _per_token(flags, counts):
    """Each line's flag repeated once per token of the line."""
    return chain.from_iterable(map(repeat, flags, counts))


def _first_fault(text: str) -> None:
    """Raise the ParseError of the first line of a complex text that the per-line validator refuses."""
    for lineno, line in _lines(text):
        _parse_vertices(line, lineno)


def _increasing(columns: list) -> bool:
    """Whether every row of rank columns strictly increases."""
    return all(map(all, map(map, repeat(lt), columns, columns[1:])))


def parse_complex(text: str) -> SimplicialComplex:
    """The complex of a text of maximal simplices, one a line.

    The text goes straight to packed keys in bulk passes (_columns); when
    a check there fails, the per-line validator runs over the lines and
    raises the first fault in line order, so every message is its own.
    A text whose lines all pass is refused past the closure cap from its
    longest row, before any token of it is ranked.
    """
    packed = _columns(text)
    if packed is None:
        _first_fault(text)
        raise AssertionError("a bulk check refused a text that every line passes")
    labels, bits, columns = packed
    for d, level in enumerate(columns):
        columns[d] = set(_join(level, bits))  # each level's columns go as its keys come
    del level
    return _close(labels, bits, columns)


def serialize_complex(K: SimplicialComplex) -> str:
    return "".join(" ".join(str(v) for v in s) + "\n" for s in K.facets())


def parse_matching(text: str) -> list[tuple[Simplex, Simplex]]:
    """Pairs as written; validation against a complex happens elsewhere."""
    pairs = []
    for lineno, line in _lines(text):
        halves = line.split(";")
        if len(halves) != 2:
            raise ParseError(f"line {lineno}: expected 'face ; coface'")
        sigma = _parse_vertices(halves[0], lineno)
        tau = _parse_vertices(halves[1], lineno)
        pairs.append((sigma, tau))
    return pairs


def serialize_matching(pairs) -> str:
    ordered = sorted(pairs, key=lambda p: canonical_key(p[0]))
    return "".join(
        " ".join(str(v) for v in s) + " ; " + " ".join(str(v) for v in t) + "\n"
        for s, t in ordered
    )


def _read(path: str, parse):
    """parse applied to the text of a UTF-8 file; a ValueError it raises names the file.

    The error keeps its type: a ParseError stays one, and the closure cap's
    ValueError stays a ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            msg = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
            raise ParseError(f"{path}: {msg}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_complex(path: str) -> SimplicialComplex:
    """The complex in a file; a ParseError or the closure cap's ValueError names the file."""
    return _read(path, parse_complex)


def read_matching(path: str) -> list[tuple[Simplex, Simplex]]:
    """The pairs in a matching file; a ParseError names the file."""
    return _read(path, parse_matching)


def write_complex(K: SimplicialComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_complex(K))
