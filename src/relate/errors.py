"""Exception hierarchy shared across the package.

Everything raised on bad input derives from :class:`RelateError` so callers
(and the command line driver) can distinguish data problems (exit code 1)
from numerical failures (:class:`NumericalUnderflowError`, exit code 2).
:func:`read_text` decodes text inputs, so that invalid UTF-8 is a
:class:`ParseError` too, and :func:`read_header` reads the column names of
a TSV input.
"""

from __future__ import annotations

from typing import IO


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


def read_text(source: IO | bytes | str, what: str) -> str:
    """The text of a text or byte stream, raw bytes, or a string, without
    a leading byte order mark. Bytes that are not valid UTF-8 raise
    :class:`ParseError` naming ``what``."""
    raw = source if isinstance(source, (bytes, str)) else source.read()
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not valid UTF-8: {exc}") from exc
    return raw.removeprefix("\ufeff")


class SchemaError(RelateError):
    """Required columns or fields are missing, or a value set is invalid."""


def read_header(cells: list[str], what: str) -> list[str]:
    """The stripped column names of the header row of TSV input ``what``.
    A name given twice raises :class:`SchemaError` naming it, so that no
    reader silently takes the first of two columns."""
    header = [cell.strip() for cell in cells]
    for k, name in enumerate(header):
        if name and name in header[:k]:
            raise SchemaError(f"{what} header repeats column {name!r}")
    return header


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
