"""Exception hierarchy shared across the package."""


class ConfocalError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePoint(ConfocalError):
    """A coordinate of the query point vanishes, so a confocal root collides
    with a semiaxis parameter."""


class NotOnModel(ConfocalError):
    """Point violates the sphere / hyperboloid model constraint."""


class NoRealPoint(ConfocalError):
    """The linear-in-squares system has a negative solution component."""


class NoIntersection(ConfocalError):
    """A ray misses the mirror conic."""


class TangentHit(ConfocalError):
    """A ray meets the mirror tangentially; reflection is the identity."""


class NotTangent(ConfocalError):
    """Line is not tangent to the requested caustic."""


class InsideCaustic(ConfocalError):
    """Query point lies inside the caustic ellipse."""


class OrbitEscapesTable(ConfocalError):
    """The four-periodic family does not exist in the table: a diagonal of
    the Ivory quadrilateral touches its caustic inside the table."""


class DegenerateConfiguration(ConfocalError):
    """Tangent lines parallel or otherwise degenerate."""


class NotBracketed(ConfocalError):
    """Requested rotation number outside the achievable range."""


class SingularStaeckelMatrix(ConfocalError):
    """det M vanished at an evaluation point."""


class NoMonotoneDiagonal(ConfocalError):
    """Some h_i vanishes strictly inside an integration interval."""


class SolverDiverged(ConfocalError):
    """Separation-constant solver failed to converge."""


class InvalidParameters(ConfocalError):
    """Bad metric or family parameters."""


class DomainError(ConfocalError):
    """Argument outside the admissible domain."""


class NotOnSurface(ConfocalError):
    """Point does not lie on the charged surface."""


class WrongComponentCount(ConfocalError):
    """Geodesic does not meet the shell in the expected number of pieces."""


class TooCloseToSurface(ConfocalError):
    """Field evaluation requested within the near-surface cutoff."""


class ConeConditionViolated(ConfocalError):
    """Light cones not nested; simultaneous diagonalization impossible."""


class RuleUnresolved(ConfocalError):
    """A cubature's error estimate |F_m - F_2m| exceeds the tolerance."""


class ComplexRoots(ConfocalError):
    """A polynomial expected to be real-rooted has complex roots."""


class OddDegreeHyperbolic(ConfocalError):
    """No hyperbolic surfaces of odd degree exist in hyperbolic space."""


class NotInHyperbolicityDomain(ConfocalError):
    """Evaluation point fails the line-probe hyperbolicity test."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ConfigError(ConfocalError):
    """Invalid experiment configuration."""


class EmptyScene(ConfocalError):
    """SVG scene contains nothing to draw."""
