"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed AER event text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BoundsError(ValueError):
    """Coordinate outside the sensor / frame dimensions."""


class OrderingError(ValueError):
    """Event sequence violates the required time ordering."""


class ShapeError(ValueError):
    """Frames with mismatched dimensions combined."""


class ValidationError(ValueError):
    """Invariant violation in a config, profile, graph or candidate."""


class CapacityError(RuntimeError):
    """Event buffer cannot accept another frame before a flush."""


class CycleError(ValueError):
    """Graph expected to be a DAG contains a cycle."""


class ProfileError(ValueError):
    """Platform profile incomplete for a requested lookup."""
