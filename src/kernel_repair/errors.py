"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value or coordinate lies outside the space it is used with."""


class ContractError(ValueError):
    """An operation was invoked outside its stated contract."""


class FormatError(ValueError):
    """A serialized kernel, constraint, or report file is malformed."""


class ExtractionFailed(RuntimeError):
    """No monochromatic core was found.

    ``proven_absent`` is True when the search that failed was complete, in
    which case no such core exists at all.  Core extraction runs one
    complete search, so its failures always set it; False is left for a
    search that gives up early.
    """

    def __init__(self, message: str, proven_absent: bool = False):
        super().__init__(message)
        self.proven_absent = proven_absent
