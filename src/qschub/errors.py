"""Exception types shared across the package."""


class QschubError(Exception):
    """Base class for all errors raised by qschub."""


class NonSquare(QschubError):
    """Determinant of a non-square (or ragged) matrix was requested."""


class InvalidCode(QschubError):
    """A Lehmer code entry exceeds what its position allows."""


class RankMismatch(QschubError):
    """Permutations (or a permutation and an ambient rank) have incompatible sizes."""


class RankTooLarge(QschubError):
    """A requested rank exceeds the configured safety cap."""


class ShapeOutOfBox(QschubError):
    """A partition does not fit inside the required box."""


class CompositionOutOfBox(QschubError):
    """A composition is not bounded by the staircase (or requested box)."""


class BadFlag(QschubError):
    """A flag list is not admissible for the given shape."""


class Not321Avoiding(QschubError):
    """The permutation contains a 321 pattern."""


class NotRestrictedVexillary(QschubError):
    """The permutation contains one of the patterns 2143, 2413, 2431."""


class NotDominant(QschubError):
    """The permutation's code is not weakly decreasing (it contains 132)."""


class NotGrassmannian(QschubError):
    """The permutation has more than one descent."""


class ForeignVariables(QschubError):
    """A polynomial involves variables outside the allowed alphabet."""


class ExponentOverflow(QschubError):
    """A monomial's exponent exceeds the cap of the packed encoding (127)."""


class VariableOutOfRange(QschubError, ValueError):
    """A variable index is below 1 or above the encoding's bound."""


class ParseError(QschubError, ValueError):
    """Text is not in the grammar it was given as (a polynomial, a list of integers)."""


class BadPermutation(QschubError, ValueError):
    """A sequence is not a permutation in one-line notation."""


class BadPartition(QschubError, ValueError):
    """A sequence is not a partition (nonnegative, weakly decreasing)."""
