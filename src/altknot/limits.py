"""Runtime caps shared across the package, and the one rule for integers
read from text."""

from __future__ import annotations

import os


def decimal_int(text: str) -> int:
    """The integer that `text` spells in ASCII decimal digits, with an
    optional sign and surrounding whitespace.  Anything else raises
    ValueError: a value that is not a `str`, and `0_2` or non-ASCII digits,
    which `int()` would read, included."""
    digits = text.strip() if type(text) is str else ""
    if digits[:1] in ("+", "-"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def max_vertices() -> int:
    """Dimension cap for diagrams and matrices, overridable through the
    ALTKNOT_MAX_V environment variable (read on every call).

    Raises ValueError, naming the variable, unless the value is a decimal
    integer (`decimal_int`) of at least 1.
    """
    raw = os.environ.get("ALTKNOT_MAX_V", "64")
    try:
        cap = decimal_int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"ALTKNOT_MAX_V must be an integer of at least 1, got {raw!r}")
    return cap
