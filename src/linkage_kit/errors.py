"""Exception types shared across the package."""


class LinkageKitError(Exception):
    """Base class for all errors raised by linkage_kit."""


class InvalidCartan(LinkageKitError):
    """Cartan matrix is malformed or not of finite type."""


class RankMismatch(LinkageKitError):
    """A weight has a different number of coordinates than the rank."""


class IndexOutOfRange(LinkageKitError):
    """A root or coordinate index is outside its valid range."""


class ContextMismatch(LinkageKitError):
    """Operands belong to different embedding contexts."""


class NotIntegral(LinkageKitError):
    """A dot reflection was requested at a root with non-integer pairing."""


class OrbitGuardExceeded(LinkageKitError):
    """A linkage search or dot orbit grew past the configured cap."""


class NotParabolicDominant(LinkageKitError):
    """Highest weight fails the dominance condition for the parabolic."""
