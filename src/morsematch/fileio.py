"""Plain-text formats for complexes and matchings.

Both formats share one line grammar: lines are numbered from 1 for error
messages, a line starting with `#` is a comment, and blank lines are
skipped.

A complex file lists one maximal simplex per line as whitespace-separated
vertex ids, each a run of ASCII decimal digits (so non-negative).  The
parser rebuilds the downward closure, so parse(serialize(K)) == K.

A matching file has one pair per line, face and coface separated by a
semicolon: "0 1 ; 0 1 2".
"""
from __future__ import annotations

from .complexes import SimplicialComplex, Simplex, _close, canonical_key


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


def parse_complex(text: str) -> SimplicialComplex:
    maximal = [_parse_vertices(line, lineno) for lineno, line in _lines(text)]
    if not maximal:
        raise ParseError("no simplices in input")
    return _close(maximal)


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
