"""Exception types shared across the package."""


class DomainError(ValueError):
    """A value or coordinate lies outside the space it is used with."""


class ContractError(ValueError):
    """An operation was invoked outside its stated contract."""


class FormatError(ValueError):
    """A serialized kernel, constraint, or report file is malformed."""


class ExtractionFailed(RuntimeError):
    """No monochromatic core exists.

    Core extraction runs one complete search, so its failure is a proof.
    ``proven_absent`` is always True; it is kept for callers that read it.
    """

    proven_absent = True
