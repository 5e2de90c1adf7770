"""Exception hierarchy shared across the toolkit."""


class CareflowError(Exception):
    """Base class for all data and configuration errors raised by careflow."""


class CsvFormatError(CareflowError):
    """Structural problem in a CSV event log (missing column, bad timestamp)."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"{message} (row {row})"
        super().__init__(message)


class XesFormatError(CareflowError):
    """Malformed XES input; carries the parser's location when available."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class PnmlFormatError(CareflowError):
    """Malformed PNML net description."""


class PetriNetError(CareflowError):
    """Structural misuse of a Petri net (unknown place, marking mismatch)."""


class NotEnabledError(PetriNetError):
    """Raised when firing a transition whose input places lack tokens."""

    def __init__(self, transition_id: str, missing_places: frozenset[str]):
        self.transition_id = transition_id
        self.missing_places = missing_places
        missing = ", ".join(sorted(missing_places))
        super().__init__(f"transition {transition_id!r} is not enabled; missing tokens in: {missing}")


class ReplayConfigError(CareflowError):
    """Replay was asked to run against a net without initial or final marking."""


class ReplayBudgetError(CareflowError):
    """The replay search for one case expanded more states than its budget."""

    def __init__(self, case_id: str, budget: int):
        self.case_id, self.budget = case_id, budget
        super().__init__(f"replay of case {case_id!r} exceeded its budget of {budget} "
                         "search expansions; simplify the net or the log")


class ConfigError(CareflowError):
    """Bad simulator configuration file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class SimulationDeadlockError(CareflowError):
    """The token game got stuck before reaching the final marking."""

    def __init__(self, marking_repr: str):
        super().__init__(f"simulation deadlocked at marking {marking_repr}")
