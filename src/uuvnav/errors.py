"""The exceptions shared across the package, and ``shown`` for their messages.

The CLI maps these onto its exit-code contract: InputError subclasses exit
with 1, an unreachable route with 2, PlanNotFound with 3, and the one
other UuvnavError, GroundingError, with 4.  The simulator raises none of
its own: the readers refuse at load whatever it could not run.
"""


def shown(value: object) -> str:
    """``repr(value)`` for a message that echoes a value read from input,
    with each run of more than 40 digits, such as an integer too large
    for a float, cut to its first and last ten and its length."""
    import re

    def cut(run: re.Match) -> str:
        return f"{run[0][:10]}...{run[0][-10:]} ({len(run[0])} digits)"

    return re.sub(r"[0-9]{41,}", cut, repr(value))


class UuvnavError(Exception):
    """Base class for all errors raised by this package."""


class InputError(UuvnavError):
    """Malformed or inconsistent user input (files, config, arguments)."""


class GridFormatError(InputError):
    """ESRI ASCII grid parse failure, annotated with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GeoJsonError(InputError):
    """GeoJSON content that this package does not accept."""


class HddlError(InputError):
    """HDDL parse or well-formedness failure at a line:column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class GroundingError(UuvnavError):
    """Grounding aborted, e.g. the instance cap was exceeded."""


class PlanNotFound(UuvnavError):
    """The HTN search ended without a plan; the message says why."""
