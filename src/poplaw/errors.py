"""Exception hierarchy shared by all poplaw modules."""


class PoplawError(Exception):
    """Base class for all library errors."""


class InvariantError(PoplawError, ValueError):
    """A value violates a structural invariant (bad weights, bad shapes, bad arguments)."""


class PriorInconsistencyError(PoplawError):
    """The barycenter of an expected belief measure differs from the stated prior.

    Carries both beliefs so callers can report the mismatch.
    """

    def __init__(self, barycenter, prior):
        self.barycenter = barycenter
        self.prior = prior
        super().__init__(f"expected-measure barycenter {barycenter} != prior {prior}")


class ResourceLimitError(PoplawError):
    """An enumeration would exceed the configured explosion bound."""


class InternalError(PoplawError):
    """A self-check inside the library failed: a bug in poplaw, not in the input."""
