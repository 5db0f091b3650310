"""Error-correcting codecs built on adinkra redundancy.

A family fixes a graph and a bit scheme.  Dashing-scheme families send
one bit per edge (1 plain, 0 dashed); the valid words are exactly the
odd-parity dashings, the free bits live on the baobab slots, and every
plaquette is a parity check.  The direction scheme sends arrow bits on
the quaternion graph, checked by the quaternion relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import _kernels
from .algebra import check_quaternion
from .baobab import propagate_dashing, skeleton_baobab_edges, skeleton_tree
from .codes import AffineCode, DoublyEvenCode, bit_string
from .errors import (
    AmbiguousCorrectionError,
    ContradictionError,
    InputError,
    UncorrectableError,
    UnderDeterminedError,
)
from .graph import Adinkra, build_chromotopology, plaquette_masks, plaquettes
from .quaternion import (
    matrices_from_directions,
    quaternion_skeleton,
    valid_direction_vectors,
)

DASHING = "dashing"
DIRECTION = "direction"


@dataclass(frozen=True)
class Family:
    """A codec family: graph size, quotient code, and bit scheme."""

    n: int
    code_generators: tuple[str, ...]
    scheme: str

    def header(self) -> str:
        return (
            f"n={self.n};code={','.join(self.code_generators)};"
            f"scheme={self.scheme}"
        )


QUATERNION_FAMILY = Family(2, ("111",), DIRECTION)


def parse_family(text: str) -> Family:
    """Parse a family header; the alias "quaternion" is accepted."""
    text = text.strip()
    if text == "quaternion":
        return QUATERNION_FAMILY
    fields = {}
    for part in text.split(";"):
        if "=" not in part:
            raise InputError(f"malformed family field {part!r} in {text!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    for key in ("n", "code", "scheme"):
        if key not in fields:
            raise InputError(f"family header missing {key!r}: {text!r}")
    try:
        n = int(fields["n"])
    except ValueError:
        raise InputError(f"family n must be an integer: {fields['n']!r}")
    gens = tuple(g for g in fields["code"].split(",") if g)
    scheme = fields["scheme"]
    if scheme not in (DASHING, DIRECTION):
        raise InputError(f"unknown scheme {scheme!r}")
    family = Family(n, gens, scheme)
    family_skeleton(family)  # validate eagerly
    return family


@lru_cache(maxsize=64)
def family_skeleton(family: Family) -> Adinkra:
    """The graph a family's bit vectors live on."""
    if family.scheme == DIRECTION:
        if family != QUATERNION_FAMILY:
            raise InputError(
                "the direction scheme is only supported for the quaternion "
                "family (n=2;code=111;scheme=direction)"
            )
        return quaternion_skeleton()
    if family.scheme != DASHING:
        raise InputError(f"unknown scheme {family.scheme!r}")
    code = (
        DoublyEvenCode.from_strings(family.code_generators)
        if family.code_generators
        else DoublyEvenCode(family.n, ())
    )
    return build_chromotopology(family.n, code)


def block_length(family: Family) -> int:
    return len(family_skeleton(family).edges)


@lru_cache(maxsize=64)
def message_slots(family: Family) -> tuple[int, ...]:
    """Edge positions carrying the free bits, in canonical order."""
    skeleton = family_skeleton(family)
    index = {e: i for i, e in enumerate(skeleton.edges)}
    if family.scheme == DASHING:
        tree, cycles, _ = skeleton_baobab_edges(skeleton)
        slots = sorted(tree + cycles, key=lambda e: (e.u, e.color))
    else:
        slots = skeleton_tree(skeleton)
    return tuple(index[e] for e in slots)


def message_length(family: Family) -> int:
    return len(message_slots(family))


@dataclass(frozen=True)
class EdgeBitVector:
    """One bit per edge in canonical edge order."""

    family: Family
    bits: tuple[int, ...]

    def __post_init__(self):
        want = block_length(self.family)
        if len(self.bits) != want or any(b not in (0, 1) for b in self.bits):
            raise InputError(
                f"need {want} bits for {self.family.header()}, "
                f"got {self.bits!r}"
            )

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def flip(self, positions) -> "EdgeBitVector":
        bits = list(self.bits)
        for p in positions:
            if not 0 <= p < len(bits):
                raise InputError(f"flip position {p} out of range")
            bits[p] ^= 1
        return EdgeBitVector(self.family, tuple(bits))


def format_wire(vector: EdgeBitVector) -> str:
    return f"{vector.family.header()} {vector.bitstring()}\n"


def parse_wire(line: str) -> EdgeBitVector:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(
            f"wire line must be '<family-header> <bits>', got {line!r}"
        )
    family = parse_family(parts[0])
    if any(c not in "01" for c in parts[1]):
        raise InputError(f"payload is not a bitstring: {parts[1]!r}")
    return EdgeBitVector(family, tuple(int(c) for c in parts[1]))


# ---------- encoding ----------


def _parse_bits(bits) -> tuple[int, ...]:
    if isinstance(bits, str):
        if any(c not in "01" for c in bits):
            raise InputError(f"not a bitstring: {bits!r}")
        return tuple(int(c) for c in bits)
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise InputError(f"bits must be 0 or 1: {bits!r}")
    return out


def encode(message, family: Family) -> EdgeBitVector:
    """Spread message bits over the baobab slots and complete the rest."""
    bits = _parse_bits(message)
    slots = message_slots(family)
    if len(bits) != len(slots):
        raise InputError(
            f"message must be {len(slots)} bits for {family.header()}, "
            f"got {len(bits)}"
        )
    skeleton = family_skeleton(family)
    seeds = dict(zip(slots, bits))
    if family.scheme == DASHING:
        full, _trace = propagate_dashing(
            skeleton, {skeleton.edges[pos]: b for pos, b in seeds.items()}
        )
        missing = [e for e in skeleton.edges if e not in full]
        if missing:
            raise UnderDeterminedError(
                "free bits did not determine the full block",
                unresolved=missing,
            )
        return EdgeBitVector(family, tuple(full[e] for e in skeleton.edges))
    valid = _completions(family, seeds)
    if len(valid) != 1:
        raise ContradictionError(
            f"{len(valid)} completions satisfy the quaternion relations"
        )
    return EdgeBitVector(family, valid[0])


# ---------- syndromes ----------


@dataclass(frozen=True)
class Syndrome:
    """Violated checks: plaquette descriptors or relation names."""

    family: Family
    violated: tuple

    @property
    def ok(self) -> bool:
        return not self.violated

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> tuple[str, ...]:
        return tuple(str(v) for v in self.violated)


@dataclass(frozen=True)
class PlaquetteCheck:
    """Identifies one plaquette parity check within a family."""

    colors: tuple[int, int]
    base_label: str

    def __str__(self) -> str:
        return f"plaquette colors={self.colors} base={self.base_label}"


@lru_cache(maxsize=64)
def _parity_checks(family: Family):
    skeleton = family_skeleton(family)
    return tuple(
        (PlaquetteCheck(p.colors, bit_string(p.base, skeleton.length)), mask)
        for p, mask in zip(plaquettes(skeleton), plaquette_masks(skeleton))
    )


def _relation_edge_positions(family: Family) -> dict[str, frozenset[int]]:
    skeleton = family_skeleton(family)
    by_color: dict[int, list[int]] = {}
    for i, e in enumerate(skeleton.edges):
        by_color.setdefault(e.color, []).append(i)
    units = {1: "k", 2: "j", 3: "i"}
    colors_of = {
        "i^2": "i", "j^2": "j", "k^2": "k",
        "{i,j}": "ij", "{i,k}": "ik", "{j,k}": "jk", "ijk": "ijk",
    }
    out = {}
    for rel, letters in colors_of.items():
        positions: set[int] = set()
        for color, unit in units.items():
            if unit in letters:
                positions.update(by_color[color])
        out[rel] = frozenset(positions)
    return out


def syndrome(vector: EdgeBitVector) -> Syndrome:
    """Every violated check for the given block."""
    family = vector.family
    if family.scheme == DASHING:
        value = 0
        for i, b in enumerate(vector.bits):
            value |= b << i
        violated = tuple(
            check for check, mask in _parity_checks(family)
            if (value & mask).bit_count() % 2 == 0
        )
        return Syndrome(family, violated)
    skeleton = family_skeleton(family)
    directions = dict(zip(skeleton.edges, vector.bits))
    report = check_quaternion(matrices_from_directions(directions))
    return Syndrome(family, report.violated_relations())


# ---------- correction ----------


@dataclass(frozen=True)
class Correction:
    vector: EdgeBitVector
    flips: tuple[int, ...]


def _single_flip_candidates(vector: EdgeBitVector, syn: Syndrome):
    family = vector.family
    if family.scheme == DASHING:
        skeleton = family_skeleton(family)
        index = {e: i for i, e in enumerate(skeleton.edges)}
        sets = []
        by_desc = {
            check: mask for check, mask in _parity_checks(family)
        }
        for check in syn.violated:
            mask = by_desc[check]
            sets.append({i for i in index.values() if mask >> i & 1})
        common = set.intersection(*sets)
        return sorted(common)
    rel_edges = _relation_edge_positions(family)
    sets = [set(rel_edges[name]) for name in syn.violated]
    return sorted(set.intersection(*sets))


def correct(vector: EdgeBitVector, max_flips: int = 1) -> Correction:
    """Smallest flip set clearing the syndrome.

    Single-bit candidates are localized to the intersection of the
    violated checks (a valid single flip must touch every one); larger
    sizes are searched exhaustively.  All corrections of the winning
    size are collected: more than one is an ambiguity error, none
    within the budget is detected-uncorrectable.
    """
    if max_flips < 0:
        raise InputError(f"max_flips must be >= 0, got {max_flips}")
    syn = syndrome(vector)
    if syn.ok:
        return Correction(vector, ())
    n_bits = len(vector.bits)
    for size in range(1, max_flips + 1):
        if size == 1:
            pool = [(i,) for i in _single_flip_candidates(vector, syn)]
        else:
            pool = combinations(range(n_bits), size)
        hits = []
        for flips in pool:
            candidate = vector.flip(flips)
            if syndrome(candidate).ok:
                hits.append((candidate, tuple(flips)))
        if len(hits) == 1:
            return Correction(*hits[0])
        if len(hits) > 1:
            raise AmbiguousCorrectionError(
                f"{len(hits)} distinct {size}-bit corrections clear the "
                "syndrome",
                candidates=tuple(h[1] for h in hits),
            )
    raise UncorrectableError(
        f"detected-uncorrectable: no correction within {max_flips} flip(s); "
        f"violated: {', '.join(syn.describe())}"
    )


@dataclass(frozen=True)
class DecodeResult:
    message: tuple[int, ...]
    flips: tuple[int, ...]

    def message_string(self) -> str:
        return "".join(str(b) for b in self.message)


def decode(vector: EdgeBitVector, max_flips: int = 1) -> DecodeResult:
    """Correct the block, then read the message off the baobab slots."""
    fixed = correct(vector, max_flips)
    slots = message_slots(vector.family)
    return DecodeResult(
        tuple(fixed.vector.bits[i] for i in slots), fixed.flips
    )


# ---------- erasures ----------


def fill_erasures(vector: EdgeBitVector, erased) -> EdgeBitVector:
    """Recover erased positions, trusting every surviving bit.

    Dashing blocks propagate parity from the survivors; the fill
    succeeds exactly when the survivors pin down every erased edge (in
    particular whenever they cover a baobab).  Direction blocks keep the
    valid words that agree with every survivor.
    """
    family = vector.family
    erased = tuple(sorted(set(int(p) for p in erased)))
    n_bits = len(vector.bits)
    for p in erased:
        if not 0 <= p < n_bits:
            raise InputError(f"erased position {p} out of range")
    skeleton = family_skeleton(family)
    erased_set = set(erased)
    known = {
        i: b for i, b in enumerate(vector.bits) if i not in erased_set
    }
    if family.scheme == DASHING:
        full, _trace = propagate_dashing(
            skeleton, {skeleton.edges[i]: b for i, b in known.items()}
        )
        missing = [
            i for i, e in enumerate(skeleton.edges) if e not in full
        ]
        if missing:
            raise UnderDeterminedError(
                f"surviving bits leave positions {missing} undetermined",
                unresolved=missing,
            )
        return EdgeBitVector(family, tuple(full[e] for e in skeleton.edges))
    valid = _completions(family, known)
    if not valid:
        raise ContradictionError(
            "no completion of the erased arrows satisfies the relations"
        )
    if len(valid) > 1:
        raise UnderDeterminedError(
            f"{len(valid)} completions satisfy the relations",
            unresolved=erased,
        )
    return EdgeBitVector(family, valid[0])


# ---------- the family's affine code ----------


def _word_bits(word: int, n_bits: int) -> tuple[int, ...]:
    return tuple(word >> i & 1 for i in range(n_bits))


@lru_cache(maxsize=64)
def family_code(family: Family) -> AffineCode:
    """The valid blocks as an affine GF(2) code; bit i is position i.

    Dashing blocks solve one odd-parity check per plaquette; the eight
    valid quaternion orientations are collected once and spanned.
    """
    n_bits = block_length(family)
    if family.scheme == DASHING:
        masks = [mask for _, mask in _parity_checks(family)]
        code = AffineCode.from_checks(masks, n_bits)
        if code is None:
            raise ContradictionError(
                f"no block of {family.header()} satisfies every plaquette"
            )
        return code
    vectors = valid_direction_vectors()
    return AffineCode.from_words(
        (sum(b << i for i, b in enumerate(v)) for v in vectors), n_bits
    )


def _completions(family: Family, known) -> list[tuple[int, ...]]:
    """Valid blocks agreeing with `known` (position -> bit), ascending."""
    code = family_code(family)
    return [
        _word_bits(w, code.n_bits)
        for w in code.words()
        if all(w >> i & 1 == b for i, b in known.items())
    ]


# ---------- distance and channel ----------


def codewords(family: Family) -> tuple[tuple[int, ...], ...]:
    """Every valid block, ascending as integers with bit i = position i
    (guarded: walks the 2**dim words of the family's code)."""
    code = family_code(family)
    _kernels.check_guard(code.dim, "codeword enumeration")
    return tuple(_word_bits(w, code.n_bits) for w in code.words())


def min_distance(family: Family) -> int:
    """Minimum pairwise Hamming distance between valid blocks (guarded:
    walks the 2**dim kernel words of the family's code)."""
    code = family_code(family)
    _kernels.check_guard(code.dim, "minimum-distance search")
    return code.min_distance()


def inject_errors(
    vector: EdgeBitVector, flips: int, seed: int
) -> tuple[EdgeBitVector, tuple[int, ...]]:
    """Flip `flips` distinct positions chosen by a seeded RNG."""
    n_bits = len(vector.bits)
    if not 0 <= flips <= n_bits:
        raise InputError(f"flips must be in 0..{n_bits}, got {flips}")
    rng = random.Random(seed)
    positions = tuple(sorted(rng.sample(range(n_bits), flips)))
    return vector.flip(positions), positions
