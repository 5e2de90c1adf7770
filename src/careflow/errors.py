"""Exception hierarchy shared across the toolkit."""


class CareflowError(Exception):
    """Base class for all data and configuration errors raised by careflow. A location
    given ends the message: ``(row 3)``, ``(line 2)`` or ``(line 2, column 5)``."""

    def __init__(self, message: str, *, row: int | None = None, line: int | None = None,
                 column: int | None = None):
        self.row, self.line, self.column = row, line, column
        where = ", ".join(f"{name} {value}" for name, value in
                          (("row", row), ("line", line), ("column", column)) if value is not None)
        super().__init__(f"{message} ({where})" if where else message)


class CsvFormatError(CareflowError):
    """Structural problem in a CSV event log (missing column, bad timestamp)."""


class XesFormatError(CareflowError):
    """Malformed XES input, or a log XES cannot spell; carries the parser's location if any."""


class PnmlFormatError(CareflowError):
    """Malformed PNML net description."""


class PetriNetError(CareflowError):
    """Structural misuse of a Petri net (unknown place, marking mismatch)."""


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


class SimulationDeadlockError(CareflowError):
    """A simulated case got stuck, or ran out of steps, before the final marking."""
