"""Exception hierarchy shared across the package."""


class SlopecertError(Exception):
    """Base class for all package errors."""


class EmptyCone(SlopecertError):
    """No dominant integral point of the cone has coordinate sum within max_sum."""


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


class DimensionMismatch(SlopecertError):
    """Archimedean parameter is inconsistent with the requested dimension."""


class BadGap(SlopecertError):
    """Highest-weight coordinates would be negative for this parameter."""


class Inconsistent(SlopecertError):
    """Trace constraints admit no solution."""


class StepFailed(SlopecertError):
    """A deformation step could not pick weights: its cone's first point exceeds max_sum."""

    def __init__(self, step, place, message=""):
        self.step = step
        self.place = place
        super().__init__(message or f"step {step} failed at place {place}")


class VerdictFailed(SlopecertError):
    """Certification produced a verdict other than the expected one."""

    def __init__(self, survivors, certificate=None, message=""):
        self.survivors = survivors
        self.certificate = certificate
        super().__init__(message or f"unexpected survivors: {survivors}")

