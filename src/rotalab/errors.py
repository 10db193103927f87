"""Exception hierarchy shared across the package."""


class RotalabError(Exception):
    """Base class for every error raised deliberately by this package."""


class DegreeOverflow(RotalabError):
    """A product left the degree-two polynomial window for theta."""


class NotComposable(RotalabError):
    """Two groupoid arrows were composed but range and source disagree."""


class NotInReduction(RotalabError):
    """A flow arrow lies outside the axis transversal reduction."""


class NotInFg(RotalabError):
    """The requested pair of flow times does not solve the lattice condition."""


class InvalidMu(RotalabError):
    """The angle matrix has vanishing defect, so transversal formulas divide by zero."""


class UnsupportedMatrix(RotalabError):
    """The operation is only implemented for the stated matrix shape."""


class GridMismatch(RotalabError):
    """Two sampled functions live on different grids."""


class TruncationTooSmall(RotalabError):
    """An operation would shift data outside the declared truncation window."""


class AliasingDetected(RotalabError):
    """Quadrature nodes cannot resolve the requested oscillation frequency."""


class RankAmbiguous(RotalabError):
    """Singular values cluster at the rank tolerance, so the kernel dimension is unreliable."""


class ConfigInvalid(RotalabError):
    """A run configuration failed validation."""


class IoError(RotalabError):
    """A report or table could not be written."""
