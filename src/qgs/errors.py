"""Exception and warning types shared across the toolkit.

Numerical-failure exceptions (PoleProximity, SingularMatrix, ...) carry the
offending evaluation point so sweep drivers can skip the grid point and
report it instead of aborting the whole run.
"""


class QGSError(Exception):
    """Base class for all toolkit errors."""


class GraphError(QGSError):
    """Base class for graph construction / manipulation errors."""


class ParseError(GraphError):
    """Malformed graph file.  Carries line/field diagnostics when known."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        super().__init__(f"{message}" + (f" ({', '.join(loc)})" if loc else ""))


class UnknownEdge(GraphError):
    """Edge id not present in the graph."""


class LoopContraction(GraphError):
    """Attempt to contract a loop edge (contraction needs two distinct endpoints)."""


class Disconnected(GraphError):
    """Operation requires a connected graph."""


class NumericalError(QGSError):
    """Base class for numerical failures at a specific evaluation point."""


class PoleProximity(NumericalError):
    """Evaluation point too close to a trigonometric pole of the M-matrix.

    Carries the energy ``z`` and the offending edge.  Callers that want a
    boundary value from the upper half plane retry at ``z + 1e-8j``.
    """

    def __init__(self, z, edge):
        self.z = z
        self.edge = edge
        super().__init__(f"|sin(sqrt(z)*l)| < 1e-12 for edge {edge!r} at z={z}")


class SingularMatrix(NumericalError):
    """Linear system ill-conditioned beyond the hard threshold (cond > 1e12)."""

    def __init__(self, z, what="matrix"):
        self.z = z
        super().__init__(f"{what} numerically singular at z={z}")


class FactorisationMismatch(NumericalError):
    """The projected and factorised forms of the external scattering matrix
    disagree beyond tolerance — indicates a conditioning problem, since the
    two forms are algebraically identical."""

    def __init__(self, s, defect, tol):
        self.s = s
        self.defect = defect
        super().__init__(
            f"projected vs factorised scattering forms differ by {defect:.3e} "
            f"(tol {tol:.1e}) at s={s}"
        )


class ExtrapolationDiverged(NumericalError):
    """Large-energy extrapolation residual exceeded its acceptance threshold."""

    def __init__(self, residual, threshold, path=None):
        self.residual = residual
        self.threshold = threshold
        self.path = path
        where = f" for path to {path!r}" if path is not None else ""
        super().__init__(
            f"extrapolation residual {residual:.3e} > {threshold:.3e}{where}"
        )


class ScanFailure(NumericalError):
    """A root scan could not finish or came up short: its function stayed
    undefined (NaN or infinite) around a grid point, or the route listed
    fewer eigenvalues than the count proves lie in its window.  Carries the
    abscissa ``x`` where it gave up, or the window's edge."""

    def __init__(self, message, x):
        self.x = x
        super().__init__(message)


class InconsistentPaths(QGSError):
    """Path-sum system references an ancestor that has not been solved yet
    (paths must be ordered with non-decreasing vertex count)."""


class SingularBracket(UserWarning):
    """A grid point was dropped because the inner inverse of the
    Robin-to-Dirichlet extraction failed there."""


class ScanResolution(UserWarning):
    """Two roots fell within one scan step; the scan step may be too coarse."""
