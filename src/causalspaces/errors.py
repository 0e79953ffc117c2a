"""Exception types shared across the package."""


class CausalSpacesError(Exception):
    """Base class for all library errors."""


class DomainError(CausalSpacesError):
    """An argument lives on the wrong space, subset, or shape."""


class NullSetError(CausalSpacesError):
    """Conditioning (or an operation requiring positive mass) hit a null set."""


class CapError(CausalSpacesError):
    """An array the input needs is larger than the machine's physical memory."""


class ContractError(CausalSpacesError):
    """A precondition stated in an operation's contract was violated."""


class CycleError(CausalSpacesError):
    """Structural-assignment graph is cyclic or not in topological order."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class SingularBlockError(DomainError):
    """A covariance block that must be invertible is numerically singular."""


class DocumentError(CausalSpacesError):
    """A JSON document or expression does not match the expected schema."""


class InternalInconsistencyError(CausalSpacesError):
    """An exhaustive scan contradicted a previously established classification."""
