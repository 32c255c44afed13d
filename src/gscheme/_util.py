"""Small shared helpers: float formatting."""

from __future__ import annotations


def fmt17(x: float) -> str:
    """Round-trip-exact decimal rendering (17 significant digits)."""
    return format(float(x), ".17g")
