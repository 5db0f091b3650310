"""Binary linear codes used to quotient hypercubes, and the affine
GF(2) codes formed by valid dashings and orientations.

Codewords are stored as integers: a length-L bit vector maps color 1 to
the most significant bit, so the string "1100" with L = 4 is 0b1100.
This matches the bitstring convention used by every serialized form in
the package.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

from .errors import InputError

# ---------- bit-vector helpers ----------


def weight(word: int) -> int:
    """Hamming weight of a codeword."""
    return word.bit_count()


def color_bit(color: int, length: int) -> int:
    """Bit flipped by edge color `color` (1-based, color 1 = MSB)."""
    if not 1 <= color <= length:
        raise InputError(f"color {color} out of range 1..{length}")
    return 1 << (length - color)


def bit_string(word: int, length: int) -> str:
    """Render a codeword as an MSB-first bitstring of the given length."""
    if word < 0 or word >> length:
        raise InputError(f"word {word} does not fit in {length} bits")
    return format(word, f"0{length}b")


def check_bit(value, what: str, edge=None) -> int:
    """`value` if it is a bit, an int 0 or 1; else InputError naming
    `what` and, if given, the edge (formatted only then).  Bools count as
    ints in Python, but `true` is no bit, nor is 1.0 or "1"."""
    if type(value) is not int or value not in (0, 1):
        if edge is not None:
            what = f"{what} for {edge}"
        raise InputError(f"{what} must be 0 or 1, got {reprlib.repr(value)}")
    return value


def read_bits(values, n: int, what, text: bool = False,
              of=None) -> tuple[int, ...]:
    """The `n` bits of `values` as a tuple of ints: a string of 0s and 1s
    if `text`, else an iterable of `check_bit` bits.  A non-iterable is
    refused with its type, another length with its length, then a bad
    entry with its position, so no error quotes the run; `what` names
    the run and `of`, if given, its owner, both formatted only then.  Success costs C-level passes only;
    the scan runs after a failure."""
    if text:
        if not isinstance(values, str):
            raise InputError(f"{what} must be a string, "
                             f"got {type(values).__name__}")
        # strip leaves a non-empty rest exactly when some character is not 0/1
        if len(values) == n and not values.strip("01"):
            return tuple(map(int, values))
        bits = tuple({"0": 0, "1": 1}.get(c, c) for c in values)
    else:
        try:
            bits = tuple(values)
        except TypeError:
            bits = None
        else:
            # types first: a bool, a float or an unhashable entry
            # fails there
            if (len(bits) == n and {int}.issuperset(map(type, bits))
                    and {0, 1}.issuperset(bits)):
                return bits
    if of is not None:
        what = f"{what} of {of}"
    if bits is None:
        raise InputError(f"need an iterable of bits for {what}, "
                         f"got {type(values).__name__}")
    if len(bits) != n:
        raise InputError(f"need {n} bits for {what}, got {len(bits)}")
    for k, b in enumerate(bits):  # some entry is no bit: check_bit raises
        check_bit(b, f"bit {k} of {what}")


def parse_bit_string(text: str) -> tuple[int, int]:
    """Parse an MSB-first bitstring; returns (value, length)."""
    # strip leaves a non-empty rest exactly when some character is not 0/1
    if not isinstance(text, str) or not text or text.strip("01"):
        raise InputError(f"not a bitstring: {text!r}")
    return int(text, 2), len(text)


# ---------- GF(2) row reduction ----------


def _echelon(rows) -> tuple[int, ...]:
    """Independent GF(2) rows with distinct leading bits and the same
    span, sorted by leading bit from most significant down."""
    pivots: dict[int, int] = {}
    for row in rows:
        cur = int(row)
        while cur:
            p = cur.bit_length() - 1
            if p not in pivots:
                pivots[p] = cur
                break
            cur ^= pivots[p]
    return tuple(pivots[p] for p in sorted(pivots, reverse=True))


def gf2_rref(rows) -> tuple[int, ...]:
    """Reduced row echelon form of GF(2) row vectors.

    Returns the basis rows sorted by pivot from most significant down,
    with every pivot column cleared in all other rows.  Dependent and
    zero rows vanish, so the result length is the rank.
    """
    reduced = list(_echelon(rows))
    # back-substitute so each pivot appears in exactly one row
    for j, row in enumerate(reduced):
        pivot = 1 << (row.bit_length() - 1)
        for i in range(j):
            if reduced[i] & pivot:
                reduced[i] ^= row
    return tuple(reduced)


def _clear_pivots(word: int, rows) -> int:
    """Clear each echelon row's pivot (leading) bit from `word` with that
    row, from the highest pivot down.  The result is zero exactly when
    `word` lies in the rows' span."""
    for row in rows:
        if word >> (row.bit_length() - 1) & 1:
            word ^= row
    return word


@dataclass(frozen=True)
class AffineCode:
    """The affine GF(2) code offset + span(basis) over n_bits-wide words.

    Word bit i is coordinate i.  Valid dashings of a skeleton form such a
    code, and so do the valid quaternion orientations; `codec.family_code`
    builds both, from an offset and kernel rows, never from a list of
    words.  `basis`, any rows spanning the kernel (the differences
    between codewords), is kept in echelon form.  `complete` is the one
    operation: filling a block in from its known bits.
    """

    n_bits: int
    offset: int
    basis: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", _echelon(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def complete(self, word: int, known_mask: int) -> tuple[int, int] | None:
        """A codeword equal to `word` on `known_mask`, and the mask of
        positions where such codewords differ; None when there is none.

        Row-reduces each kernel word b as (b & known_mask, b), restricted
        part high.  Rows whose restricted part vanishes span the
        differences between agreeing codewords.
        """
        n = self.n_bits
        rows = _echelon((b & known_mask) << n | b for b in self.basis)
        left = _clear_pivots(((word ^ self.offset) & known_mask) << n, rows)
        if left >> n:
            return None
        varying = 0
        for row in rows:
            if not row >> n:
                varying |= row
        return self.offset ^ left, varying


def _doubly_even_witness(generators) -> int | None:
    """The first generator of weight not 0 mod 4, else the first pair
    sum of weight 2 mod 4, else None.  As wt(a ^ b) = wt(a) + wt(b) -
    2 wt(a & b), None means the whole span is doubly even: O(k^2) work."""
    for g in generators:
        if weight(g) % 4:
            return g
    for i, a in enumerate(generators):
        for b in generators[i + 1:]:
            if weight(a & b) % 2:
                return a ^ b
    return None


def is_doubly_even(generators) -> bool:
    """True iff every nonzero word spanned by the generators has weight
    divisible by four.

    Accepts integers or bitstrings; linear dependence is tolerated (any
    generating set gives the same answer).
    """
    gens = [parse_bit_string(g)[0] if isinstance(g, str) else int(g) for g in generators]
    return _doubly_even_witness(gens) is None


# ---------- code objects ----------


@dataclass(frozen=True)
class LinearBinaryCode:
    """A binary linear code held in RREF generator form.

    `length` is the ambient bit length L; `generators` are independent
    RREF rows ordered by pivot from the most significant bit down.
    """

    length: int
    generators: tuple[int, ...]

    def __post_init__(self):
        if self.length < 1:
            raise InputError(f"code length must be positive, got {self.length}")
        reduced = gf2_rref(self.generators)
        if len(reduced) != len(self.generators) or reduced != tuple(self.generators):
            raise InputError(
                "generators must be independent RREF rows; "
                f"got {[bit_string(g, self.length) for g in self.generators]}"
            )
        for g in self.generators:
            if g >> self.length:
                raise InputError(
                    f"generator {bin(g)} does not fit in {self.length} bits"
                )

    @classmethod
    def from_strings(cls, generator_strings, length: int | None = None):
        """Build from MSB-first bitstrings, reducing to RREF."""
        gens = []
        for s in generator_strings:
            value, got = parse_bit_string(s)
            if length is None:
                length = got
            elif got != length:
                raise InputError(
                    f"generator {s!r} has length {got}, expected {length}"
                )
            gens.append(value)
        if length is None:
            raise InputError("length is required when no generators are given")
        reduced = gf2_rref(gens)
        if len(reduced) != len(gens):
            raise InputError(
                f"generators {list(generator_strings)} are linearly dependent"
            )
        return cls(length, reduced)

    @property
    def k(self) -> int:
        """Code dimension."""
        return len(self.generators)

    def generator_strings(self) -> tuple[str, ...]:
        return tuple(bit_string(g, self.length) for g in self.generators)


class DoublyEvenCode(LinearBinaryCode):
    """Linear binary code in which every codeword weight is 0 mod 4."""

    def __post_init__(self):
        super().__post_init__()
        bad = _doubly_even_witness(self.generators)
        if bad is not None:
            raise InputError(
                f"codeword {bit_string(bad, self.length)} has weight "
                f"{weight(bad)}, not divisible by 4"
            )


def canonical_representative(label: int, code: LinearBinaryCode) -> int:
    """Smallest integer in the coset of `label`.

    Clearing every pivot bit with its RREF row is a linear map onto the
    coset member that is zero on all pivots.  Any other member differs
    from it by a nonzero codeword, whose highest bit is a pivot where
    that member has a 1, so it is larger.
    """
    return _clear_pivots(label, code.generators)
