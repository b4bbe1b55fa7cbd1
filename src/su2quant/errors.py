"""Exception and warning types shared across the package."""


class ParameterDomain(ValueError):
    """Parameter outside the admissible (s, t) domain."""


class IllConditioned(RuntimeError):
    """Backward heat flow would amplify coefficients past the guard."""


class TruncationError(RuntimeError):
    """No truncation of rho_t's character series meets the tail tolerance at the requested time."""
