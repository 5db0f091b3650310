"""Size guard for graphs and for the correction search.

A quotient of the n-cube has 2**n nodes, and the correction search of
each size above 1 visits at most weight**size leaves, for parity checks
of `weight` bits, so they refuse n or a search above
2**ADINKRA_SIZE_GUARD instead of hanging.  No codec call walks a
family's codewords: counting valid dashings and every family's minimum
distance are closed forms, guarded only through the family's n.
"""

from __future__ import annotations

import os

from .errors import InputError, SizeGuardError

# perfbench/run.py records these in its environment block; the library
# has a single pure-Python path and no numba backend.
HAS_NUMBA = False

DEFAULT_GUARD_BITS = 20


def active_backend() -> str:
    return "python"


def guard_bits() -> int:
    """Largest exponent allowed: a graph's n or a search's leaf bound."""
    raw = os.environ.get("ADINKRA_SIZE_GUARD", "").strip()
    if not raw:
        return DEFAULT_GUARD_BITS
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"ADINKRA_SIZE_GUARD must be an integer, got {raw!r}")


def _exponent(n: int) -> str:
    """n in full up to 48 digits, else its digit count, so that an error
    line stays short."""
    digits = str(abs(n))
    return str(n) if len(digits) <= 48 else f"({len(digits)} digits)"


def check_guard(n_bits: int, what: str) -> None:
    limit = guard_bits()
    if n_bits > limit:
        raise SizeGuardError(
            f"{what} needs 2**{_exponent(n_bits)} words, above the guard of "
            f"2**{_exponent(limit)}; set ADINKRA_SIZE_GUARD to raise the limit"
        )
