"""Size guard for exhaustive walks over a code's words.

Counting valid dashings is exact linear algebra and never guarded;
listing codewords and searching the minimum distance walk all 2**dim
kernel words of a family's affine code, so they refuse dimensions above
ADINKRA_SIZE_GUARD bits instead of hanging.
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
    """Maximum kernel dimension for exhaustive walks."""
    raw = os.environ.get("ADINKRA_SIZE_GUARD", "").strip()
    if not raw:
        return DEFAULT_GUARD_BITS
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"ADINKRA_SIZE_GUARD must be an integer, got {raw!r}")


def check_guard(n_bits: int, what: str) -> None:
    limit = guard_bits()
    if n_bits > limit:
        raise SizeGuardError(
            f"{what} needs 2**{n_bits} words, above the guard of "
            f"2**{limit}; set ADINKRA_SIZE_GUARD to raise the limit"
        )
