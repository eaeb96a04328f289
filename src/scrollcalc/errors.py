"""Exception types shared across the package."""


class ScrollcalcError(Exception):
    """Base class for all structured errors raised by this package."""


class ParameterMismatch(ScrollcalcError, ValueError):
    """Two quantities living on scrolls with different parameters were combined."""


class NonIntegralValue(ScrollcalcError, ArithmeticError):
    """An Euler characteristic that must be an integer came out fractional.

    This always indicates corrupted Chern data (or an internal bug), never a
    legitimate state, hence an error rather than a rational return value.
    """


class Inadmissible(ScrollcalcError, ValueError):
    """Parameters violate a bound of the package's domain or of a monad variant.

    The ``bound`` attribute spells out the violated inequality.
    """

    def __init__(self, message: str, bound: str = ""):
        super().__init__(message)
        self.bound = bound


class ChaseUnsupported(ScrollcalcError, ValueError):
    """A long-exact-sequence chase was requested on an unsupported input."""


class OrthogonalityFailure(ScrollcalcError, AssertionError):
    """A dual-collection orthogonality cell came out wrong.

    ``violations`` is a list of ``(i, j, m, got, expected)`` tuples.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        head = ", ".join(
            f"(i={i}, j={j}, m={m}): got {got}, expected {want}"
            for i, j, m, got, want in self.violations[:4]
        )
        more = "" if len(self.violations) <= 4 else f" (+{len(self.violations) - 4} more)"
        super().__init__(f"orthogonality violated at {head}{more}")


class StrongnessFailure(ScrollcalcError, AssertionError):
    """A higher Ext group that must vanish could not be shown to vanish."""

    def __init__(self, items):
        self.items = list(items)
        super().__init__(
            "strongness check failed for: " + ", ".join(str(it) for it in self.items)
        )
