"""Exception hierarchy shared across the package.

Everything raised on bad input derives from :class:`RelateError` so callers
(and the command line driver) can distinguish data problems (exit code 1)
from numerical failures (:class:`NumericalUnderflowError`, exit code 2).
:func:`read_tsv` reads every tab-separated input, so that the format and
its faults are the same for all of them.
"""

from __future__ import annotations

import csv
import io
from typing import IO, Iterator, Sequence


class RelateError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RelateError):
    """Malformed textual input (TSV rows, Newick strings, matrix files)."""

    def __init__(self, message, line=None, position=None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if position is not None:
            loc.append(f"position {position}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.position = position


class SchemaError(RelateError):
    """Required columns or fields are missing, or a value set is invalid."""


class EmptyInputError(RelateError):
    """An input that must contain data is empty."""


class UnknownSegmentError(RelateError):
    """A word contains a segment absent from the sound-class table."""

    def __init__(self, segment, form):
        super().__init__(f"unknown segment {segment!r} in form {form!r}")
        self.segment = segment
        self.form = form


class EmptyConceptError(RelateError):
    """A concept slated for alignment has no encodable word in any language."""


class InsufficientDataError(RelateError):
    """Too few taxa, sites, or runs for the requested computation."""


class TaxaMismatchError(RelateError):
    """Two objects that must share a taxon set do not."""

    def __init__(self, message, missing=(), extra=()):
        parts = [message]
        if missing:
            parts.append(f"missing: {sorted(missing)}")
        if extra:
            parts.append(f"unexpected: {sorted(extra)}")
        super().__init__("; ".join(parts))
        self.missing = frozenset(missing)
        self.extra = frozenset(extra)


class DistanceUndefinedError(RelateError):
    """A distance was requested for a pair with no shared observations."""


class ExternalLookupError(RelateError):
    """An externally supplied word-distance table lacks a requested pair."""


class NumericalUnderflowError(RelateError):
    """A likelihood underflowed to zero beyond what rescaling can absorb."""


def read_tsv(
    source: IO | bytes | str, what: str, required: Sequence[str]
) -> tuple[dict[str, int], Iterator[tuple[int, list[str]]]]:
    """The column of every header name of TSV input ``what``, and an
    iterator over the line number and stripped fields of every data row.

    ``source`` is a text or byte stream, raw bytes, or a string. Bytes are
    decoded as UTF-8 and a leading byte order mark is dropped. Fields are
    read verbatim, quote characters included, and a row ends at LF, CRLF
    or CR. Blank rows are skipped. Raises :class:`EmptyInputError` for a
    blank input, :class:`SchemaError` for a repeated column name or a
    missing ``required`` column, and :class:`ParseError` for invalid UTF-8.
    The rows are read as they are iterated over, so that a large input is
    never held as a list of rows; a row whose field count differs from the
    header's, or that the TSV reader rejects, raises :class:`ParseError`
    with its line when the iteration reaches it.
    """
    text = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not valid UTF-8: {exc}") from exc
    text = text.removeprefix("\ufeff")
    if not text.strip():
        raise EmptyInputError(f"{what} is empty")
    rows = _tsv_rows(text, what, required)
    return next(rows), rows


def _tsv_rows(text: str, what: str, required: Sequence[str]):
    """The column dict of the header of ``text``, then the line number and
    fields of each data row, as :func:`read_tsv` describes them."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter="\t", quoting=csv.QUOTE_NONE)
    try:
        header = [cell.strip() for cell in next(reader)]
        columns: dict[str, int] = {}
        for k, name in enumerate(header):
            if name and name in columns:
                raise SchemaError(f"{what} header repeats column {name!r}")
            columns.setdefault(name, k)
        missing = [name for name in required if name not in columns]
        if missing:
            raise SchemaError(f"{what} lacks required columns {missing}; header is {header}")
        yield columns
        for row in reader:
            row = [cell.strip() for cell in row]
            if not any(row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{what} row has {len(row)} fields, the header {len(header)}",
                    line=reader.line_num,
                )
            yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{what}: {exc}", line=reader.line_num) from exc
