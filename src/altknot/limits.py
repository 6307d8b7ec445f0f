"""Runtime caps shared across the package."""

from __future__ import annotations

import os


def max_vertices() -> int:
    """Dimension cap for diagrams and matrices, overridable through the
    ALTKNOT_MAX_V environment variable (read on every call).

    Raises ValueError, naming the variable, unless the value is an integer
    of at least 1.
    """
    raw = os.environ.get("ALTKNOT_MAX_V", "64")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"ALTKNOT_MAX_V must be an integer of at least 1, got {raw!r}")
    return cap
