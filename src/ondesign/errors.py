"""Exception types shared across the toolkit."""


class OndesignError(Exception):
    """Base class for all toolkit errors."""


class AsymmetricInput(OndesignError):
    pass


class NegativeDistance(OndesignError):
    pass


class TriangleViolation(OndesignError):
    def __init__(self, u, v, w, slack):
        self.u, self.v, self.w, self.slack = u, v, w, slack
        super().__init__(f"d({u},{w}) > d({u},{v}) + d({v},{w}) by {slack:g}")


class SchemaError(OndesignError):
    pass


class EmptyTerminalSet(OndesignError):
    pass


class LevelOutOfRange(OndesignError):
    pass


class AlreadyExtended(OndesignError):
    pass


class UnknownLeaf(OndesignError):
    pass


class RootNotLeaf(OndesignError):
    pass


class InvalidRequirement(OndesignError):
    pass


class InvalidCover(OndesignError):
    pass


class NoFacilities(OndesignError):
    pass


class TooLarge(OndesignError):
    """An offline oracle was asked to exceed its exactness cap."""

    def __init__(self, what, got, cap):
        self.what, self.got, self.cap = what, got, cap
        super().__init__(f"{what}={got} exceeds exact-oracle cap {cap}")


class DepthTooLarge(SchemaError):
    """A diamond depth outside [0, cap]: a usage error (exit 2)."""
