"""The package's error model: three classes.

Every rejected input, a malformed JSON payload included (``_decoder``),
raises ``Inadmissible``, whose ``bound`` names the violated rule.  A checked
invariant (orthogonality, strongness, monad consistency, the verify suites)
returns a report with ``ok`` instead of raising.  ``NonIntegralValue`` is
raised only when an Euler characteristic or a Chern class comes out fractional.
``ScrollcalcError`` is their base.
"""


class ScrollcalcError(Exception):
    """Base class for all structured errors raised by this package."""


class NonIntegralValue(ScrollcalcError, ArithmeticError):
    """An Euler characteristic that must be an integer came out fractional.

    This always indicates corrupted Chern data (or an internal bug), never a
    legitimate state, hence an error rather than a rational return value.
    """


class Inadmissible(ScrollcalcError, ValueError):
    """An input violates a bound of the package's domain, of a monad variant
    or of a function's own contract.

    The ``bound`` attribute spells out the violated rule.
    """

    def __init__(self, message: str, bound: str):
        super().__init__(message)
        self.bound = bound


def _decoder(decode):
    """Guard a decoder of any arity (a ``from_dict``, or a reader of part of a
    payload): input that does not have the layout of the class's ``to_dict``
    raises ``Inadmissible`` instead of a raw error."""
    kind = decode.__qualname__.split(".")[0]

    def guarded(*args):
        try:
            return decode(*args)
        except Inadmissible:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            bound = f"{kind}.to_dict() layout"
            raise Inadmissible(f"malformed {kind} payload: {exc!r}", bound) from exc

    return guarded


def _rebuild(cls, iterable):
    """``_make`` of every checking record: it (and ``_replace``) builds through ``cls``."""
    return cls(*iterable)


_KEY_SETS: dict = {}  # frozenset(known) of each ``known`` tuple passed to ``_keys``


def _keys(data, known: tuple):
    """``data`` if it has no key outside ``known``; a decoder never drops one.
    A dict passes by one inclusion in ``frozenset(known)``, built once per ``known``."""
    key_set = _KEY_SETS.get(known) or _KEY_SETS.setdefault(known, frozenset(known))
    if type(data) is dict and data.keys() <= key_set:
        return data
    unknown = [str(key) for key in data if key not in known]
    if unknown:
        raise Inadmissible(f"unknown payload keys {sorted(unknown)}", f"keys in {known}")
    return data


def _one_of(value, allowed: tuple, name: str):
    """``value`` if it equals an ``allowed`` value of the same type (True is not 1)."""
    for a in allowed:
        if type(value) is type(a) and value == a:
            return value
    raise Inadmissible(f"{name} {value!r} is not one of {allowed}", f"{name} in {allowed}")


def _int(value):
    """``value`` if its type is exactly ``int``; a bool, float or string raises."""
    if type(value) is not int:
        raise Inadmissible(f"expected an int, got {value!r}", "type(value) is int")
    return value


def require_scroll(e) -> None:
    """The package's domain: e an int with e >= 0, checked by
    ``InstantonParams``, every Beilinson collection and the CLI."""
    if _int(e) < 0:
        raise Inadmissible("the scroll parameter e must be non-negative", "e >= 0")
