"""The error type, rational coercion and JSON form every module shares.

A leaf module: it imports nothing from this package, so a command that
needs only the error, the coercion and `dumps` (`noether`) compiles it
and not the lattice.  Where a command's output goes is `cli`'s alone.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction as Q

Rational = int | Q | str


class LatticeError(Exception):
    """Domain error with a stable machine-readable code.

    `str()` is `"<code>: <message>"`, or the bare code without a message;
    `message` holds the message alone.
    """

    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}" if message else code)


def check_size(what: str, count: int, cap: int) -> None:
    """Refuse `count` above `cap` with `too-large`, before anything is built."""
    if count > cap:
        raise LatticeError("too-large", f"{count} {what} (at most {cap})")


# A rational string: an optional sign, ASCII digits and an optional "/"
# with ASCII digits; no decimal point, exponent, space or underscore.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(x: Rational) -> Q:
    """Coerce ints, Fractions and "p/q" strings to an exact rational.

    A bool is an int to Python but not a rational here: a JSON `true`
    coefficient is malformed input, not 1.  Nor is a decimal string such
    as "0.5" or "1e-1", which `Fraction` would parse.  A part past
    `str`→`int`'s digit limit is refused naming the limit, and a value
    over 64 characters is echoed as its first 32 and its length.
    """
    if isinstance(x, Q):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Q(x)
    if isinstance(x, str) and _RATIONAL_TEXT.fullmatch(x):
        try:
            return Q(x)
        except ZeroDivisionError:
            why = " has a zero denominator"
        except ValueError:  # the text matched, so only the digit limit refuses it
            from sys import get_int_max_str_digits

            why = f" has a part over the {get_int_max_str_digits()}-digit limit"
    else:
        why = " is not a rational" if isinstance(x, str) else ""
    text = x if isinstance(x, str) else repr(x)
    shown = repr(x) if len(text) <= 64 else f"{text[:32]!r}... ({len(text)} characters)"
    raise LatticeError("bad-rational", shown + why)


def rational_str(x: Rational) -> str:
    """Reduced "p/q" form; integers print without a denominator.

    `str` refuses an int longer than `sys.get_int_max_str_digits()`, a
    guard for parsing untrusted input; an exact answer that long is
    printed through `decimal`, which the guard does not cover.  Only a
    value that is not already a `Fraction` is coerced.
    """
    if not isinstance(x, Q):
        x = Q(x)
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal

        p, q = Decimal(x.numerator), Decimal(x.denominator)
        return f"{p}" if q == 1 else f"{p}/{q}"


def dumps(obj: dict) -> str:
    """The JSON text every command prints: sorted keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
