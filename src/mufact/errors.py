"""Exception types shared across the package."""


class MufactError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(MufactError):
    """Operands have incompatible or unexpected dimensions."""


class NotHermitian(MufactError):
    """Matrix fails the Hermitian pre-check."""


class NotPSD(MufactError):
    """Matrix has an eigenvalue below the PSD tolerance floor."""


class NotUnitary(MufactError):
    """Matrix is not unitary within tolerance."""


class NotCP(MufactError):
    """Map is not completely positive (Choi matrix not PSD)."""


class DimensionTooLarge(MufactError):
    """Requested exhaustive computation exceeds the safety cap."""


class NotAFactorisation(MufactError):
    """Ensemble does not realise the expected channel action."""


class NotBlockDiagonal(MufactError):
    """Ensemble unitaries have off-diagonal blocks above tolerance."""


class NormTooLarge(MufactError):
    """Operator norm exceeds the contraction bound."""


class FileFormatError(MufactError):
    """Input file is missing, unreadable, or violates its schema."""
