"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class LivelockError(RuntimeError):
    """A deterministic route revisited a node, so it never arrives."""

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cycle = cycle
