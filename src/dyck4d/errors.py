"""Exception hierarchy shared across the package."""


class DyckError(Exception):
    """Base class for every error this package raises deliberately."""


class NotANode(DyckError):
    """The given coordinates do not describe a valid lattice node."""


class DomainError(DyckError, ValueError):
    """Arguments lie outside an operation's mathematical domain; also a ``ValueError``."""


class OutOfRange(DyckError):
    """A query exceeds the bound a table was built for."""


class ResourceLimit(DyckError):
    """A request exceeds a hard size cap."""


class InvalidCharacter(DyckError):
    """Word text contains a character outside the step alphabet."""


class PrefixViolation(DyckError):
    """A prefix of the word has more downsteps than upsteps."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(
            f"prefix violation at position {position}: "
            "more downsteps than upsteps"
        )


class TableFormatError(DyckError):
    """Serialized table data is malformed or internally inconsistent."""
