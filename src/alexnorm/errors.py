"""Exception types shared across the library."""


class AlexnormError(Exception):
    """Base class for all library-specific failures."""


class NonConvergentTail(AlexnormError):
    """Tail refinement failed to stabilize the improper part of an integral."""


class ToleranceNotMet(AlexnormError):
    """The panel budget was exhausted before the quadrature tolerance was met."""


class InvalidSpec(AlexnormError):
    """A decay target or scenario specification violates its preconditions."""


class NotAbsolutelyIntegrable(AlexnormError):
    """A primitive for the absolute value could not be built (not in L1)."""


class NonIntegrableProduct(AlexnormError):
    """No primitive could be built for the product of a function and a weight."""


class KernelSingularity(AlexnormError):
    """Kernel parameter outside its domain (e.g. disc radius >= 1)."""


class TailBoundFailure(AlexnormError):
    """The truncation error of an improper kernel integral could not be certified."""


class DegenerateWeight(AlexnormError):
    """A weight failed positivity on the sampled grid."""


class HypothesisViolated(AlexnormError):
    """Inputs violate the hypotheses of the check being run (not a library bug)."""


class SpecParseError(AlexnormError):
    """Malformed scenario or manifest input; message names the offending field."""


class SpecFieldError(SpecParseError):
    """A function or weight spec field is missing or invalid; ``field`` names it."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"spec field {field!r}: {reason}")
        self.field, self.reason = field, reason
