"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: InputError -> 1,
InconsistencyError -> 2, InvarianceError -> 3.
"""


class SiefringKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SiefringKitError):
    """Malformed files, unknown ids, missing covers, unusable parameters."""


class InconsistencyError(SiefringKitError):
    """Scene data that cannot arise from the geometric situation it claims
    to describe (parity violations, negative hidden counts, ...)."""


class InvarianceError(SiefringKitError):
    """A quantity that must not depend on trivialization choices changed
    under a twist (audit), or an identity of the exact germ numbers failed."""
