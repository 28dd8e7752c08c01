"""Exception taxonomy shared by every module of the toolkit.

Every error is, or descends from, one of five categories, and the
category's exit_code is the CLI's exit code for it: 1 invariant or
cross-check failure, 2 arithmetic precondition, 3 attempt budget
exhausted, 4 instance condition report, 5 heuristic assumption
violated.
"""

from __future__ import annotations


class SigcalcError(Exception):
    """Base class for all toolkit errors."""


class InvariantError(SigcalcError):
    """An invariant or a cross-check failed."""

    exit_code = 1


class PreconditionError(SigcalcError):
    """An arithmetic precondition on the inputs is violated."""

    exit_code = 2


class BudgetError(SigcalcError):
    """A search ran out of its attempt budget."""

    exit_code = 3


class ConditionFailure(SigcalcError):
    """An instance failed its condition report."""

    exit_code = 4

    def __init__(self, report):
        super().__init__(f"instance conditions fail: {report.as_dict()}")
        self.report = report


class AssumptionViolated(SigcalcError):
    """A documented heuristic assumption fails its proxy check."""

    exit_code = 5


class BadInput(PreconditionError):
    """An arithmetic precondition on the inputs is violated."""


class NonResidue(PreconditionError):
    """The argument is not a quadratic residue at the requested prime."""


class Ramified(PreconditionError):
    """The prime divides the radicand; no unit square root exists."""


class NotAUnit(PreconditionError):
    """The element is divisible by the prime and has no Teichmuller part."""


class NotInSubgroup(PreconditionError):
    """The target is not a power of the generator."""


class NotSmooth(PreconditionError):
    """Factorisation aborted: a cofactor above the bound survives."""

    def __init__(self, cofactor: int):
        super().__init__(f"not smooth: surviving cofactor {cofactor}")
        self.cofactor = cofactor


class NotSquarefree(PreconditionError):
    """The radicand of a quadratic field must be squarefree."""


class TooLarge(PreconditionError):
    """Beyond the desk-scale bound for exhaustive methods."""


class ClassNumberDivisible(PreconditionError):
    """ell divides the class number; the rank formula does not apply."""


class BudgetExhausted(BudgetError):
    """A randomized search ran out of attempts."""

    def __init__(self, attempts: int, counters: dict | None = None):
        detail = f"budget exhausted after {attempts} attempts"
        if counters:
            detail += " (" + ", ".join(f"{k} x{v}" for k, v in sorted(counters.items())) + ")"
        super().__init__(detail)
        self.attempts = attempts
        self.counters = dict(counters or {})


class Inconsistent(InvariantError):
    """The linear system has no solution."""


class RankDeficient(BudgetError):
    """At the relation ceiling, the theta table leaves `undetermined` columns."""

    def __init__(self, undetermined):
        self.undetermined = sorted(undetermined)
        super().__init__(f"undetermined unknowns: {self.undetermined}")


class VerificationFailed(InvariantError):
    """A result failed its built-in cross-check."""


class DegenerateTarget(PreconditionError):
    """The discrete-log target is +-1; the lifting does not apply."""


class OracleInconsistent(InvariantError):
    """An oracle answer failed verification against the instance."""


class BadSupport(PreconditionError):
    """A rational argument is supported at a disallowed prime."""


class NonInvertibleDenominator(PreconditionError):
    """A group-law denominator is not invertible in the local ring."""


class Singular(PreconditionError):
    """The curve is singular over the requested base."""


class OutOfScope(PreconditionError):
    """The local dimension formula does not cover this case."""


class BadReduction(PreconditionError):
    """The curve has bad reduction at the requested place."""


class SingularSystem(InvariantError):
    """The independence certificate is not invertible; the instance is invalid."""
