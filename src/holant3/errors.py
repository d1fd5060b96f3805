"""Exception taxonomy for the toolkit.

Every failure mode callers are expected to branch on gets its own class;
they all derive from HolantError so the CLI can map families to exit codes.
"""

from __future__ import annotations


class HolantError(Exception):
    """Base class for all toolkit errors."""


# --- exact arithmetic ---

class MixedRadicands(HolantError):
    """Arithmetic between quadratic extensions over different radicands."""


class NegativeRadicand(HolantError):
    """Square root of a negative rational requested."""


class NotRational(HolantError):
    """A quadratic-extension value with nonzero irrational part was
    coerced to a rational."""


# --- signature algebra ---

class NormalizationUndefined(HolantError):
    """normalize() on a signature with x0 = x3 = 0."""


class NotDegenerate(HolantError):
    """Unary decomposition requested for a non-degenerate signature."""


class NegativeEntry(HolantError):
    """A nonnegative-only operation received a negative entry."""


class ZeroA(HolantError):
    """Eigen machinery needs the lower-left matrix entry to be nonzero."""


class ZeroDelta(HolantError):
    """The straddled matrix has no two distinct real eigenvalues."""


# --- grids and gadgets ---

class GridStructureError(HolantError):
    """Malformed grid: port reuse, bad slot, unknown vertex."""


class PolarityError(GridStructureError):
    """An edge joins two same-side ports."""


class DanglingPorts(HolantError):
    """holant() called on a grid that still has dangling ports."""


class ArityMismatch(HolantError):
    """Port count and signature arity disagree."""


class TooManyLiveStates(HolantError):
    """Evaluation refused: an elimination table past its live-state
    limit (grid.MAX_LIVE_STATES), the evaluator's one refusal."""


class NonTernaryVertex(HolantError):
    """Arity-residue check applied to a gadget with non-ternary vertices."""


class NotThreeRegular(HolantError):
    """Set system is not 3-uniform / 3-regular."""


# --- interpolation ---

class SingularSystem(HolantError):
    """Exact linear solve hit a singular matrix."""


class EigenvectorSeed(HolantError):
    """Interpolation seed is proportional to a row eigenvector."""


class UnderdeterminedInterpolation(HolantError):
    """A zero eigenvalue collapsed the system and the target needs the
    lost coefficients."""


class DegenerateG(HolantError):
    """Split reduction with g a multiple of the all-ones point mass."""


class CountMismatch(HolantError):
    """Occurrence counts violate m*N_f = n*N_g + N_u with k | N_u."""


# --- planar stack ---

class NotGenusZero(HolantError):
    """Rotation system does not describe a planar (genus-0) embedding."""


class NotSkewSymmetric(HolantError):
    """Pfaffian of a non-skew-symmetric matrix requested."""


class NotPlanarInstance(HolantError):
    """Holographic pipeline input is not a planar 3-regular instance."""


class WrongSignatures(HolantError):
    """Holographic pipeline input carries unexpected signatures."""


# --- solvers ---

class WrongCase(HolantError):
    """Tractable solver invoked outside its dichotomy case."""


class HardnessRefusal(HolantError):
    """solve() declines a #P-hard instance; carries the classification."""

    def __init__(self, classification, message: str = ""):
        self.classification = classification
        super().__init__(message or "instance classified #P-hard; refusing polynomial-time solve")


# --- I/O ---

class ParseError(HolantError):
    """Unreadable input text."""


class FormatError(HolantError):
    """Structurally valid input that violates a format contract."""
