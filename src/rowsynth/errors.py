"""Exception types shared across the package."""


class RowSynthError(Exception):
    """Base class for all package errors."""


class InvalidStrandError(RowSynthError, ValueError):
    """A strand contains a symbol outside the alphabet, or cannot be parsed."""


class UnsupportedAlphabetError(RowSynthError, ValueError):
    """An operation defined only for a specific alphabet size was called with another."""


class ScheduleError(RowSynthError, ValueError):
    """Base class for schedule construction and validation failures."""


class IllegalActionError(ScheduleError):
    """A schedule advances a strand at a slot where the emitted symbol does not match."""

    def __init__(self, slot: int, message: str):
        self.slot = slot
        super().__init__(f"slot {slot}: {message}")


class IncompleteScheduleError(ScheduleError):
    """A schedule ends before every strand has been fully synthesized."""


class TableIntegrityError(RowSynthError, ValueError):
    """A solver table does not agree with the strands it is applied to."""


class BudgetExceededError(RowSynthError, RuntimeError):
    """An enumeration, a solver table or a schedule would exceed its size budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration",
                 unit: str = "interleavings"):
        self.required = required
        self.budget = budget
        super().__init__(f"{what} requires {required} {unit}, over the budget of {budget}")


class ConfigError(RowSynthError, ValueError):
    """An experiment or CLI configuration is inconsistent or out of range."""
