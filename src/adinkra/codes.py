"""Binary linear codes used to quotient hypercubes, and the affine
GF(2) codes formed by valid dashings and orientations.

Codewords are stored as integers: a length-L bit vector maps color 1 to
the most significant bit, so the string "1100" with L = 4 is 0b1100.
This matches the bitstring convention used by every serialized form in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def parse_bit_string(text: str) -> tuple[int, int]:
    """Parse an MSB-first bitstring; returns (value, length)."""
    if (not isinstance(text, str) or not text
            or any(c not in "01" for c in text)):
        raise InputError(f"not a bitstring: {text!r}")
    return int(text, 2), len(text)


# ---------- GF(2) row reduction ----------


def gf2_rref(rows) -> tuple[int, ...]:
    """Reduced row echelon form of GF(2) row vectors.

    Returns the basis rows sorted by pivot from most significant down,
    with every pivot column cleared in all other rows.  Dependent and
    zero rows vanish, so the result length is the rank.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        cur = int(row)
        while cur:
            p = cur.bit_length() - 1
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                break
    # back-substitute so each pivot appears in exactly one row
    order = sorted(pivots, reverse=True)
    for p in order:
        for q in order:
            if q > p and pivots[q] & (1 << p):
                pivots[q] ^= pivots[p]
    return tuple(pivots[p] for p in order)


@dataclass(frozen=True)
class AffineCode:
    """The affine GF(2) code offset + span(basis) over n_bits-wide words.

    Word bit i is coordinate i.  Valid dashings of a skeleton form such a
    code (one odd-parity check per plaquette), and so do the valid
    quaternion orientations.  `basis` spans the kernel: the differences
    between codewords.
    """

    n_bits: int
    offset: int
    basis: tuple[int, ...]

    @classmethod
    def from_checks(cls, masks, n_bits: int) -> "AffineCode | None":
        """Words with odd parity on every mask (H·x = 1), or None when
        no word satisfies them all."""
        masks = [int(m) for m in masks]
        for m in masks:
            if m < 0 or m >> n_bits:
                raise InputError(
                    f"check {bin(m)} does not fit in {n_bits} bits"
                )
        # bit 0 of each augmented row is the right-hand side
        rows = gf2_rref((m << 1) | 1 for m in masks)
        if rows and rows[-1] == 1:
            return None
        pivot_of = {r.bit_length() - 2: r for r in rows}
        offset = sum(1 << p for p, r in pivot_of.items() if r & 1)
        # one kernel word per free coordinate f: x_f = 1, other free ones 0
        basis = tuple(
            (1 << f)
            | sum(1 << p for p, r in pivot_of.items() if r >> (f + 1) & 1)
            for f in range(n_bits)
            if f not in pivot_of
        )
        return cls(n_bits, offset, basis)

    @classmethod
    def from_words(cls, words, n_bits: int) -> "AffineCode":
        """The affine code whose words are exactly `words`."""
        words = [int(w) for w in words]
        if not words:
            raise InputError("an affine code needs at least one word")
        offset = words[0]
        basis = gf2_rref(w ^ offset for w in words)
        if 1 << len(basis) != len(set(words)):
            raise InputError(
                f"{len(words)} words do not form an affine space "
                f"(their differences have rank {len(basis)})"
            )
        return cls(n_bits, offset, basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def count(self) -> int:
        return 1 << self.dim

    def words(self) -> tuple[int, ...]:
        """All 2**dim codewords, ascending."""
        return tuple(sorted(self.offset ^ w for w in gf2_span(self.basis)))

    def min_distance(self) -> int:
        """Least weight of a nonzero kernel word, which for an affine
        code is the minimum distance between distinct codewords.

        Walks the 2**dim kernel words in Gray-code order, one XOR each.
        """
        if not self.basis:
            raise InputError("a 0-dimensional code has no two distinct words")
        best = self.n_bits + 1
        word = 0
        for i in range(1, 1 << self.dim):
            word ^= self.basis[(i & -i).bit_length() - 1]
            w = word.bit_count()
            if w < best:
                best = w
        return best


def gf2_span(generators) -> tuple[int, ...]:
    """All XOR combinations of the generators (2**rank words, sorted)."""
    words = {0}
    for g in generators:
        words |= {w ^ int(g) for w in words}
    return tuple(sorted(words))


def is_doubly_even(generators) -> bool:
    """True iff every nonzero word spanned by the generators has weight
    divisible by four.

    Accepts integers or bitstrings; linear dependence is tolerated (the
    span is what gets checked).
    """
    gens = [parse_bit_string(g)[0] if isinstance(g, str) else int(g) for g in generators]
    return all(weight(w) % 4 == 0 for w in gf2_span(gens) if w)


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

    def span(self) -> tuple[int, ...]:
        """All 2**k codewords, ascending."""
        return _span_cached(self.generators)

    def generator_strings(self) -> tuple[str, ...]:
        return tuple(bit_string(g, self.length) for g in self.generators)


class DoublyEvenCode(LinearBinaryCode):
    """Linear binary code in which every codeword weight is 0 mod 4."""

    def __post_init__(self):
        super().__post_init__()
        for w in self.span():
            if w and weight(w) % 4 != 0:
                raise InputError(
                    f"codeword {bit_string(w, self.length)} has weight "
                    f"{weight(w)}, not divisible by 4"
                )


@lru_cache(maxsize=256)
def _span_cached(generators: tuple[int, ...]) -> tuple[int, ...]:
    return gf2_span(generators)


@lru_cache(maxsize=64)
def coset_table(code: LinearBinaryCode) -> tuple[int, ...]:
    """Map every length-L label to its canonical (minimum) coset member."""
    span = code.span()
    table = [0] * (1 << code.length)
    for x in range(1 << code.length):
        table[x] = min(x ^ w for w in span)
    return tuple(table)


def canonical_representative(label: int, code: LinearBinaryCode) -> int:
    """Smallest integer in the coset of `label`."""
    return coset_table(code)[label]
