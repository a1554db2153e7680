"""Exception hierarchy shared across the package.

A replay step never fails to pick weights: every gap cone has a closed-form
first point.  Weights too large for the exact int64 candidate kernel are
refused there with a ``ValueError``.
"""


class SlopecertError(Exception):
    """Base class for all package errors."""


class NotDistinct(SlopecertError):
    """Operation requires pairwise distinct Frobenius eigenvalue slopes."""


class MixedResidue(SlopecertError):
    """Unramified characters with different residue cardinalities were mixed."""


class ZeroArgument(SlopecertError):
    """Hilbert symbol arguments must be nonzero."""


class SplitExtension(SlopecertError):
    """The quadratic extension is split (d is a local square), so there is no norm character."""


class Degenerate(SlopecertError):
    """A regularity invariant of a transfer-factor instance failed at evaluation time."""


class VerdictFailed(SlopecertError):
    """Certification produced a verdict other than the expected one; carries the certificate."""

    def __init__(self, certificate, message):
        self.certificate = certificate
        super().__init__(message)

