"""Exception hierarchy shared by all coalflow modules."""


class CoalflowError(Exception):
    """Base class for all coalflow errors."""


class NonPositiveDiffusion(CoalflowError):
    """Diffusion coefficient b(x) <= 0 was detected at a quadrature or step node."""


class NegativeDuration(CoalflowError):
    pass


class InvalidGap(CoalflowError):
    """Bridge crossing needs strictly positive endpoint gaps."""


class EmptyStarts(CoalflowError):
    pass


class OffGridTime(CoalflowError):
    """Requested time does not lie on the skeleton's time grid (or was not observed)."""


class OutOfHorizon(CoalflowError):
    pass


class AboveRange(CoalflowError):
    """No skeleton trajectory sits at or above the queried point; the envelope is +inf there."""


class InvalidTimePair(CoalflowError):
    """Discrete-time flow evaluated outside {0,1,2} or with s > t."""


class NoAnalyticLaw(CoalflowError):
    """Requested a closed-form marginal for a spec that has none."""


class ConfigError(CoalflowError):
    pass
