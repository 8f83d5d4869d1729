"""Exception types shared across the toolkit."""


class OndesignError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(OndesignError):
    """An invalid instance, trace or argument: exit 2."""


class TooLarge(OndesignError):
    """An offline oracle was asked to exceed its exactness cap."""

    def __init__(self, what, got, cap):
        self.what, self.got, self.cap = what, got, cap
        super().__init__(f"{what}={got} exceeds exact-oracle cap {cap}")
