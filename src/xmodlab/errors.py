"""Exception taxonomy shared across the package.

Every error raised on bad input derives from ValueError so callers can catch
broadly; the specific classes exist because several of them carry a witness
(the first offending element or pair), every refusal at a hard bound carries
that bound as ``limit``, and the command line maps them to distinct exit
codes.
"""

from __future__ import annotations


class XmodlabError(ValueError):
    """Base class for all package-specific errors."""


class ParseError(XmodlabError):
    """Malformed textual input; ``position`` is a 0-based character offset."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DegreeMismatch(XmodlabError):
    """Permutations of different degrees were combined."""


class NotInGroup(XmodlabError):
    """An element was required to lie in a group and does not."""


class NotASubgroup(XmodlabError):
    """A claimed subgroup has a generator outside the ambient group."""


class _WithWitness(XmodlabError):
    """An error that carries ``witness``, the first offending element or
    pair (``None`` when there is none to show)."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class NonNormal(_WithWitness):
    """A subgroup required to be normal is not; carries a witness pair."""


class NonAbelian(_WithWitness):
    """Invariant factors were requested for a nonabelian group."""


class RelationViolated(_WithWitness):
    """A generator-image assignment does not extend to a homomorphism."""


class NonInjective(XmodlabError):
    """A homomorphism required to be injective has nontrivial kernel."""


class _WithLimit(XmodlabError):
    """An error that carries ``limit``, the bound that was exceeded."""

    def __init__(self, message: str, limit: int | None = None):
        self.limit = limit
        super().__init__(message)


class SearchBoundExceeded(_WithLimit):
    """An isomorphism search was asked about groups above its size bound."""


class EnumerationBoundExceeded(_WithLimit):
    """Full element enumeration was requested beyond the supported order."""


class CosetLimitExceeded(_WithLimit):
    """Coset enumeration exceeded its table limit without completing."""


class IncompleteTable(XmodlabError):
    """A permutation representation was requested from a partial table."""


class BudgetExceeded(_WithLimit):
    """A presentation would need more relator letters than its budget;
    ``limit`` is the budget."""


class EdgeMismatch(XmodlabError):
    """Two squares were composed along edges that do not agree."""


class MaterializationBoundExceeded(_WithLimit):
    """The square universe is too large to hold in memory at once."""


class ValidationFailed(XmodlabError):
    """An internally constructed object failed its own consistency check."""


class TableMismatch(XmodlabError):
    """A verified table run disagreed with the stored reference values."""
