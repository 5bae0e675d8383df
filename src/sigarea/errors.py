"""Exception vocabulary shared across the package.

Every data-dependent failure raises one of these, all rooted at
:class:`SigAreaError` so callers (and the CLI) can catch the family at once.
A parameter outside its documented range raises plain ValueError instead,
and bad argument types TypeError.  Each parameter rule is checked in the
one module that owns it, and RunConfig calls that same check, so a bad
value gives one ValueError text whether it comes in through RunConfig or
straight to a library function.  The CLI maps the two families in one
place: ValueError exits 1 (a usage error), SigAreaError exits 2 (a data
error).
"""

from __future__ import annotations


class SigAreaError(Exception):
    """Base class for all data-dependent errors raised by sigarea."""


class ConstantSeries(SigAreaError):
    """Series has zero range; unit-range scaling is undefined."""


class TooShort(SigAreaError):
    """Series is too short for the requested operation."""


class NonMonotonicTime(SigAreaError):
    """Time stamps are not strictly increasing."""


class EmptyRange(SigAreaError):
    """Resampling grid holds fewer than two points."""


class ShiftTooLarge(SigAreaError):
    """|tau| leaves under 2 aligned samples of the shifted pair."""


class DegeneratePath(SigAreaError):
    """Path has fewer than two points."""


class WindowTooLong(SigAreaError):
    """Window length exceeds the series length."""


class InsufficientData(SigAreaError):
    """Not enough samples to estimate the requested statistic."""


class LengthMismatch(SigAreaError):
    """Sequences that must align have different lengths."""


class NameTaken(SigAreaError):
    """A channel the run adds would reuse an input channel's name."""


class ZeroVariance(SigAreaError):
    """A variance in a ratio denominator is zero."""


class SingularDesign(SigAreaError):
    """Regression design matrix is rank-deficient."""


class DegenerateEmbedding(SigAreaError):
    """All delay-embedding points coincide."""


class ParseError(SigAreaError):
    """CSV text cannot be decoded or its structure is invalid; message
    carries the location."""


class RaggedRows(ParseError):
    """CSV rows have inconsistent field counts."""


class NonNumericCell(ParseError):
    """A CSV body cell failed to parse as a number."""


class IoError(SigAreaError):
    # Named per the package's error vocabulary; distinct from the builtin
    # IOError alias of OSError.
    """File could not be read or written."""


class Divergence(SigAreaError):
    """A generated system state left the unit interval."""
