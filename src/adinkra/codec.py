"""Error-correcting codecs built on adinkra redundancy.

A family fixes a graph and a bit scheme.  Dashing-scheme families send
one bit per edge (1 plain, 0 dashed); the valid words are exactly the
odd-parity dashings, the free bits live on the baobab slots, and every
plaquette is a parity check.  The direction scheme sends arrow bits on
the quaternion graph, checked by the quaternion relations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, islice
from operator import itemgetter

from . import _kernels
from .baobab import (
    _ndxor_program,
    _slot_order,
    skeleton_baobab_edges,
    skeleton_tree,
)
from .codes import AffineCode, DoublyEvenCode, bit_string, gf2_rref, read_bits
from .errors import (
    AmbiguousCorrectionError,
    ContradictionError,
    InputError,
    UncorrectableError,
    UnderDeterminedError,
)
from .graph import (
    _BITS,
    Adinkra,
    _plaquette_ids,
    build_chromotopology,
    chromotopology_code,
    json_int,
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

    __str__ = header  # errors name a family by its header


QUATERNION_FAMILY = Family(2, ("111",), DIRECTION)


def _quoted(text: str, limit: int = 48) -> str:
    """`text` quoted, or past `limit` characters its first `limit` quoted
    and its length, so that an error line stays short."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def parse_family(text: str) -> Family:
    """Parse a family header; the alias "quaternion" is accepted.  Its
    errors quote the header and its fields through `_quoted`."""
    text = text.strip()
    if text == "quaternion":
        return QUATERNION_FAMILY
    fields = {}
    for part in text.split(";"):
        if "=" not in part:
            raise InputError(f"malformed family field {_quoted(part)} in "
                             f"{_quoted(text)}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key in fields or key not in ("n", "code", "scheme"):
            what = "repeated" if key in fields else "unknown"
            raise InputError(
                f"{what} family field {_quoted(key)} in {_quoted(text)}")
        fields[key] = value.strip()
    for key in ("n", "code", "scheme"):
        if key not in fields:
            raise InputError(f"family header missing {key!r}: {_quoted(text)}")
    # ASCII digits without a leading zero, which `Family.header` renders
    # as given; `int` would also take "+3", "1_1" and other scripts' digits
    if not re.fullmatch("0|[1-9][0-9]*", fields["n"]):
        raise InputError(f"family n must be an integer: {_quoted(fields['n'])}")
    n = int(fields["n"])
    gens = tuple(g for g in fields["code"].split(",") if g)
    family = Family(n, gens, fields["scheme"])
    _resolve(family)  # validate eagerly, without building the graph
    return family


def _resolve(family: Family) -> "_Record":
    """The family's record, with the size guard read on every call: the
    guard reads the environment, so a cached record must not skip it."""
    record = _record(family)
    if record.quotient is not None:
        _kernels.check_guard(family.n, "quotient construction")
    return record


def _quotient_code(family: Family) -> DoublyEvenCode | None:
    """The quotient code of a dashing family (None for the quaternion
    family), after every check that building its graph would make."""
    if family.scheme == DIRECTION:
        if family != QUATERNION_FAMILY:
            raise InputError(
                "the direction scheme is only supported for the quaternion "
                "family (n=2;code=111;scheme=direction)"
            )
        return None
    if family.scheme != DASHING:
        raise InputError(f"unknown scheme {family.scheme!r}")
    return chromotopology_code(family.n, family.code_generators)


class _Record:
    """One family's parts.  The quotient code and the block length (the
    graph's edges: 2**n nodes of degree L = n + k) are set at once, which
    builds no graph; the skeleton, slots, program, checks and affine
    code are each built on first read and kept.  `_record` keeps the
    records of the last 64 families, so a call resolves its family with
    one lookup."""

    def __init__(self, family: Family):
        self.family = family
        self.quotient = _quotient_code(family)
        self.n_bits = (family.n + len(family.code_generators)) << (
            family.n - 1)

    @cached_property
    def skeleton(self) -> Adinkra:
        if self.quotient is None:
            from .quaternion import quaternion_skeleton
            return quaternion_skeleton()
        return build_chromotopology(self.family.n, self.quotient)

    @cached_property
    def slots(self) -> tuple[int, ...]:
        skeleton = self.skeleton
        index = {e: i for i, e in enumerate(skeleton.edges)}
        if self.quotient is not None:
            tree, cycles, _ = skeleton_baobab_edges(skeleton)
            slots = _slot_order(tree + cycles)
        else:
            slots = skeleton_tree(skeleton)
        return tuple(index[e] for e in slots)

    @cached_property
    def program(self):
        """A dashing family's compiled NDXOR program."""
        return _ndxor_program(self.skeleton)

    @cached_property
    def checks(self) -> "_Checks":
        """The parity checks of the family's valid blocks.  A dashing
        family's are its plaquettes, on the edge ids of the plaquette
        table, each odd.  The quaternion's are the triangles of its
        graph, K4: the edges away from one of nodes 1, 2, 3.  A triangle
        meets every vertex switch in 0 or 2 edges, and the three are
        independent, so they span the dual of the switches' span (see
        `code`); each wants the parity of `CANONICAL_DIRECTIONS` on it."""
        skeleton = self.skeleton
        if self.quotient is not None:
            table = _plaquette_ids(skeleton)
            return _Checks(table.quads, 4, [1] * len(table.quads),
                           table.incidence, skeleton.length - 1)
        from .quaternion import CANONICAL_DIRECTIONS
        edges = skeleton.edges
        rows = [tuple(i for i, e in enumerate(edges) if x not in (e.u, e.v))
                for x in skeleton.nodes[1:]]
        through = [([j for j, row in enumerate(rows) if i in row],)
                   for i in range(len(edges))]
        return _Checks(rows, 3, [sum(CANONICAL_DIRECTIONS[i] for i in row) & 1
                                 for row in rows],
                       through, max(len(js) for (js,) in through))

    @cached_property
    def code(self) -> AffineCode:
        """The affine code of the valid blocks (see `family_code`)."""
        skeleton = self.skeleton
        edges = skeleton.edges
        switches = dict.fromkeys(skeleton.nodes, 0)
        flips = [0] * (skeleton.length + 1)
        for i, (u, v, color) in enumerate(edges):
            switches[u] |= 1 << i
            switches[v] |= 1 << i
            flips[color] |= 1 << i
        if self.quotient is None:
            from .quaternion import CANONICAL_DIRECTIONS
            return AffineCode(len(edges), _bits_word(CANONICAL_DIRECTIONS),
                              gf2_rref(switches.values()))
        # the program writes every other edge before it reads it
        return AffineCode(len(edges),
                          _bits_word(self.program.run([0] * len(edges))),
                          (*switches.values(), *flips))


_record = lru_cache(maxsize=64)(_Record)


def family_skeleton(family: Family) -> Adinkra:
    """The graph a family's bit vectors live on."""
    return _resolve(family).skeleton


def block_length(family: Family) -> int:
    """Edges of the family's graph: 2**n nodes of degree L = n + k."""
    return _record(family).n_bits


def message_slots(family: Family) -> tuple[int, ...]:
    """Edge positions carrying the free bits, in canonical order."""
    return _record(family).slots


def message_length(family: Family) -> int:
    return len(message_slots(family))


@dataclass(frozen=True)
class EdgeBitVector:
    """One bit per edge in canonical edge order; `bits`, a sequence of
    the ints 0 and 1, is kept as a tuple."""

    family: Family
    bits: tuple[int, ...]

    def __post_init__(self):
        bits = read_bits(self.bits, block_length(self.family), self.family)
        if bits is not self.bits:  # a list or another sequence
            object.__setattr__(self, "bits", bits)

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)

    def flip(self, positions) -> "EdgeBitVector":
        bits = list(self.bits)
        for p in _iterable(positions, "flip"):
            bits[_position(p, len(bits), "flip")] ^= 1
        return _block(self.family, tuple(bits))


def _block(family: Family, bits: tuple[int, ...]) -> EdgeBitVector:
    """The block of `bits`, a tuple of the ints 0 and 1 of the family's
    length derived from checked bits (a flip, a program run, a
    completion), built without rerunning `read_bits` on them."""
    vector = object.__new__(EdgeBitVector)
    object.__setattr__(vector, "family", family)
    object.__setattr__(vector, "bits", bits)
    return vector


def _iterable(positions, what: str):
    """An iterator over a caller's `positions`; InputError naming the
    type of an argument that is not iterable."""
    try:
        return iter(positions)
    except TypeError:
        raise InputError(f"need an iterable of {what} positions, got "
                         f"{type(positions).__name__}") from None


def _position(p, n_bits: int, what: str) -> int:
    """A caller's bit position: an int, not a bool, in range(n_bits)."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise InputError(f"{what} position {p!r} is not an integer")
    if not 0 <= p < n_bits:
        raise InputError(f"{what} position {p} out of range")
    return p


def format_wire(vector: EdgeBitVector) -> str:
    return f"{vector.family.header()} {vector.bitstring()}\n"


def parse_wire(line: str) -> EdgeBitVector:
    parts = line.split()
    if len(parts) != 2:
        raise InputError("wire line must be '<family-header> <bits>', "
                         f"got {len(parts)} fields")
    family = parse_family(parts[0])
    return _block(family, read_bits(
        parts[1], block_length(family), family, text=True))


# ---------- encoding ----------

_FLAGS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to 0/1 bytes


def _word_bits(word: int, n_bits: int) -> tuple[int, ...]:
    """The `n_bits` low bits of `word`, bit i at position i."""
    return tuple(format(word, f"0{n_bits}b")[::-1].encode().translate(_FLAGS))


def _bits_word(bits) -> int:
    """Inverse of `_word_bits`: bit i of the word is bits[i]."""
    return int(bytes(reversed(bits)).translate(_BITS), 2)


def encode(message, family: Family) -> EdgeBitVector:
    """Spread message bits over the baobab slots and complete the rest:
    by the family skeleton's compiled NDXOR program for dashing
    families, by peeling on the triangles for the quaternion, whose
    slots are a spanning tree of K4.  Every dashing family has a
    program: its quotient code passed the doubly-even gate of
    `graph.chromotopology_code`, and every doubly even quotient has an
    odd dashing, which the program rebuilds from its slot bits."""
    record = _resolve(family)
    slots = record.slots
    bits = read_bits(message, len(slots), "the message",
                     text=isinstance(message, str), of=family)
    vals = [None] * record.n_bits
    for i, b in zip(slots, bits):
        vals[i] = b
    if record.quotient is None:
        _peel(record.checks, vals, set(range(record.n_bits)).difference(slots))
    else:
        record.program.run(vals)
    return _block(family, tuple(vals))


def _contradiction(family: Family) -> ContradictionError:
    return ContradictionError(
        f"no valid block of {family.header()} agrees with the known bits")


def _complete(family: Family, word: int, known_mask: int) -> EdgeBitVector:
    """The one valid block agreeing with `word` on `known_mask`, solved
    over the family's affine code: `fill_erasures` of L or more
    erasures, or of a pattern the peel leaves."""
    code = _record(family).code
    fill = code.complete(word, known_mask)
    if fill is None:
        raise _contradiction(family)
    block, varying = fill
    if varying:
        unresolved = [i for i in range(code.n_bits) if varying >> i & 1]
        raise UnderDeterminedError(
            f"the known bits leave positions {unresolved} undetermined",
            unresolved=unresolved,
        )
    return _block(family, _word_bits(block, code.n_bits))


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


def syndrome(vector: EdgeBitVector) -> Syndrome:
    """Every violated check for the given block."""
    return Syndrome(vector.family,
                    _violations(_resolve(vector.family), vector)[1])


# ---------- correction ----------


@dataclass(frozen=True)
class Correction:
    vector: EdgeBitVector
    flips: tuple[int, ...]


def correct(vector: EdgeBitVector, max_flips: int = 1) -> Correction:
    """Smallest flip set that makes the block a codeword.

    The block's syndrome is the mask of its family's violated parity
    checks (`_Record.checks`); a flip set repairs the block when the
    masks of the checks through its bits XOR to it.  Sets are sought by
    size (`_Checks.flip_sets`), and all repairs of the winning size are
    collected: more than one is an ambiguity error, none within the
    budget is detected-uncorrectable.  A size above 1 whose search
    bound, weight**size leaves for checks of `weight` bits, exceeds
    2**guard is refused before its search.
    """
    return _correct(vector, max_flips)[0]


def _correct(vector: EdgeBitVector,
             max_flips: int) -> tuple[Correction, "_Record"]:
    """`correct`, and the record of the block's family."""
    if not json_int(max_flips):
        raise InputError(f"max_flips must be an integer, got {max_flips!r}")
    if max_flips < 0:
        raise InputError(f"max_flips must be >= 0, got {max_flips}")
    record = _resolve(vector.family)
    checks = record.checks
    mask = checks.mask(vector.bits)
    if not mask:
        return Correction(vector, ()), record
    for size in range(1, max_flips + 1):
        if size > 1:  # single flips cost less than reading the guard
            bits = (checks.weight ** size - 1).bit_length()
            _kernels.check_guard(bits, f"correction walk of {size}-flip sets")
        hits = checks.flip_sets(mask, size)
        if len(hits) == 1:
            return Correction(vector.flip(hits[0]), hits[0]), record
        if len(hits) > 1:
            raise AmbiguousCorrectionError(
                f"{len(hits)} distinct {size}-bit corrections clear the "
                "syndrome",
                candidates=tuple(hits),
            )
    # the count and the first three: all-zero L=16 violates 61440 checks
    count, violated = _violations(record, vector, 3, mask)
    first = ", the first 3" if count > 3 else ""
    raise UncorrectableError(
        f"detected-uncorrectable: no correction within {max_flips} flip(s); "
        f"{count} checks violated{first}: {', '.join(map(str, violated))}"
    )


def _violations(record: "_Record", vector: EdgeBitVector,
                shown: int | None = None,
                mask: int | None = None) -> tuple[int, tuple]:
    """How many checks the block violates, and the first `shown` (all by
    default) of the ones `syndrome` lists.  A dashing block reads both
    off its syndrome mask (`_Checks.mask`, or `mask` if given) and
    describes only the plaquettes it shows; a quaternion block names
    the relations its matrices break."""
    skeleton = record.skeleton
    if record.quotient is None:
        from .algebra import check_quaternion
        from .quaternion import matrices_from_directions
        directions = dict(zip(skeleton.edges, vector.bits))
        violated = check_quaternion(
            matrices_from_directions(directions)).violated_relations()
        return len(violated), violated[:shown]
    if mask is None:
        mask = record.checks.mask(vector.bits)
    table = _plaquette_ids(skeleton)
    # bit j of the mask is plaquette j: its binary digits, lowest first
    broken = format(mask, "b")[::-1].encode().translate(_FLAGS)
    return mask.bit_count(), tuple(
        PlaquetteCheck(p.colors, bit_string(p.base, skeleton.length))
        for p in islice(compress(table.plaquettes, broken), shown))


class _Checks:
    """A family's parity checks, of `weight` bits each: check j wants
    odd parity over the bit positions `supports[j]` where odd[j] is 1,
    else even.  `through[i]` holds, in one or more lists, the checks
    through position i, and at most `column_weight` checks pass through
    any position.  A syndrome is one int, bit j set where check j
    fails."""

    __slots__ = ("supports", "weight", "odd", "through", "column_weight",
                 "count", "gather", "need", "column")

    def __init__(self, supports, weight, odd, through, column_weight):
        self.supports, self.weight, self.odd = supports, weight, odd
        self.through, self.column_weight = through, column_weight
        self.count = count = len(supports)
        # the bits of every check's k-th position, checks from the last
        # down, for k = 0, 1, ...: one gather, read as `weight` big ints
        self.gather = count and itemgetter(*[
            s[k] for k in range(weight) for s in reversed(supports)])
        self.need = int.from_bytes(bytes(reversed(odd)), "big")
        # built on first use, the last 4096 kept: an L=16 column spans up
        # to 61440 bits, and all 16384 of them take about 85 MB
        self.column = lru_cache(maxsize=4096)(self._column)

    def mask(self, bits) -> int:
        """The syndrome of `bits`, a tuple of the ints 0 and 1."""
        count = self.count
        if not count:
            return 0
        picked = bytes(self.gather(bits))
        wrong = self.need  # a byte per check: 1 where its parity is wrong
        for k in range(0, len(picked), count):
            wrong ^= int.from_bytes(picked[k:k + count], "big")
        return int(wrong.to_bytes(count, "big").translate(_BITS), 2)

    def _column(self, i: int) -> int:
        """The mask of the checks through position i (`column`)."""
        return sum(1 << j for side in self.through[i] for j in side)

    def flip_sets(self, mask: int, size: int) -> list[tuple[int, ...]]:
        """Every set of `size` positions whose columns XOR to `mask`, as
        ascending tuples in `combinations` order.

        A bounded search tree (Downey and Fellows, *Parameterized
        Complexity*): such a set holds a position of the lowest failing
        check, so it branches on that check's positions, at most
        `weight` of them, skipping those already chosen, and prunes where
        more checks fail than the flips left could clear, `column_weight`
        each.  Each leaf lies at depth `size`, so it visits at most
        weight**size leaves.
        """
        supports, column = self.supports, self.column
        most = self.column_weight
        hits = set()

        def grow(mask: int, left: int, chosen: tuple[int, ...]) -> None:
            if not mask:
                if not left:
                    hits.add(tuple(sorted(chosen)))
                return
            if mask.bit_count() > most * left:
                return
            for i in supports[(mask & -mask).bit_length() - 1]:
                if i not in chosen:
                    grow(mask ^ column(i), left - 1, chosen + (i,))

        grow(mask, size, ())
        return sorted(hits)


@dataclass(frozen=True)
class DecodeResult:
    message: tuple[int, ...]
    flips: tuple[int, ...]

    def message_string(self) -> str:
        return "".join(str(b) for b in self.message)


def decode(vector: EdgeBitVector, max_flips: int = 1) -> DecodeResult:
    """Correct the block, then read the message off the baobab slots."""
    fixed, record = _correct(vector, max_flips)
    bits = fixed.vector.bits
    return DecodeResult(tuple(bits[i] for i in record.slots), fixed.flips)


# ---------- erasures ----------


def fill_erasures(vector: EdgeBitVector, erased) -> EdgeBitVector:
    """Recover erased positions, trusting every surviving bit.

    No valid block agrees with the survivors: ContradictionError.
    Several do: UnderDeterminedError, whose `unresolved` lists the
    positions where they differ.  Exactly one: that block.

    Fewer erasures than L = n + k, the code's distance, leave at most
    one agreeing block, and the baobab circuit finds it: NDXOR run on
    the survivors (`_peel`), kept only if it is a valid block.  L or
    more erasures, or a peel that stalls, are solved over the family's
    affine code (`_complete`): a peel's passes read every check through
    every erased position, while one row reduction costs about the same
    at any count, so from L up it is the cheaper path.
    """
    n_bits = len(vector.bits)
    erased = {_position(p, n_bits, "erased")
              for p in _iterable(erased, "erased")}
    family = vector.family
    record = _resolve(family)
    if len(erased) < family.n + len(family.code_generators):
        vals = list(vector.bits)
        for i in erased:
            vals[i] = None
        if _peel(record.checks, vals, erased):
            if record.quotient is None:  # valid when no triangle fails
                valid = not record.checks.mask(vals)
            else:  # valid when the program rebuilds it from its slots
                valid = record.program.run(vals.copy()) == vals
            if not valid:
                raise _contradiction(family)
            return _block(family, tuple(vals))
    # the positions are distinct, so their sum is their mask
    known_mask = ((1 << n_bits) - 1) ^ sum(1 << i for i in erased)
    return _complete(family, _bits_word(vector.bits), known_mask)


def _peel(checks: _Checks, vals: list, erased) -> bool:
    """Fill the `erased` positions of `vals` (None there) by peeling: a
    check whose other positions are all known gets the parity it wants
    at its erased one, until no erased position has such a check.  True
    when every position is filled; False when the peel stalls on a
    stopping set, which no check meets exactly once.  A valid block
    agreeing with the survivors satisfies every check, so it agrees
    with every filled bit (Luby, Mitzenmacher, Shokrollahi and
    Spielman, IEEE Trans. IT 47(2), 2001).  A pass over the erased
    positions reads up to the L - 1 checks through each, so it suits
    patterns below the distance L, which one pass mostly clears."""
    supports, through, odd = checks.supports, checks.through, checks.odd
    left = list(erased)
    while left:
        stalled = []
        for i in left:
            for j in chain.from_iterable(through[i]):
                bit = odd[j]
                for k in supports[j]:
                    if k != i:
                        if vals[k] is None:
                            break
                        bit ^= vals[k]
                else:
                    vals[i] = bit
                    break
            else:
                stalled.append(i)
        if len(stalled) == len(left):
            return False
        left = stalled
    return True


# ---------- the family's affine code ----------


def family_code(family: Family) -> AffineCode:
    """The valid blocks as an affine GF(2) code; bit i is position i.

    The kernel holds every vertex switch (the edges at one node).  With
    the L color flips, the 2**n switches span a dashing family's kernel,
    the words even on every plaquette: the coboundaries plus the first
    cohomology of the quotient's cubical complex, of dimension k (Zhang,
    arXiv:1111.6055); the offset is the NDXOR program run from all-zero
    slots.  Every dashing family has that program: its quotient code
    passed the doubly-even gate of `graph.chromotopology_code`, and every
    doubly even quotient has an odd dashing.  Reversing every arrow at
    one node conjugates i, j and k by a diagonal sign matrix, which keeps
    the quaternion relations: the valid orientations are the canonical
    one plus the switches' span.
    """
    return _record(family).code


# ---------- distance and channel ----------


def min_distance(family: Family) -> int:
    """Minimum pairwise Hamming distance between valid blocks: L = n + k,
    the degree of every node, for every family.

    A dashing family's kernel word is even on every plaquette, so with
    an edge it holds a second edge on each of the L - 1 plaquettes
    through it, distinct as a doubly even code has no weight-2 word; a
    vertex switch has weight L.  The quaternion's kernel is the span of
    the four vertex switches of K4 (`family_code`), which sum to zero:
    one switch, or three, weighs 3 and two weigh 4, so its distance is
    3 = L.  Only the header is checked, with the guard on a dashing
    family's n, as `parse_family` checks it.
    """
    _resolve(family)
    return family.n + len(family.code_generators)


def inject_errors(
    vector: EdgeBitVector, flips: int, seed: int
) -> tuple[EdgeBitVector, tuple[int, ...]]:
    """Flip `flips` distinct positions chosen by a seeded RNG."""
    n_bits = len(vector.bits)
    if not json_int(flips):
        raise InputError(f"flips must be an integer, got {flips!r}")
    if not 0 <= flips <= n_bits:
        raise InputError(f"flips must be in 0..{n_bits}, got {flips}")
    rng = random.Random(seed)
    positions = tuple(sorted(rng.sample(range(n_bits), flips)))
    return vector.flip(positions), positions
