"""Chromotopology graphs: hypercubes quotiented by binary codes.

Nodes are canonical coset representatives (minimum label in the coset),
kept as integers over length-L bitstrings with color 1 flipping the most
significant bit.  With the code in RREF these are exactly the labels
that are zero on every pivot bit, and edge color I joins x to
x XOR d_I, where d_I is the representative of e_I.  Dashing is a sign
per edge (+1 plain, -1 dashed) and heights are integers per node with
adjacent nodes differing by exactly one.
"""

from __future__ import annotations

import gc
import json
import threading
from array import array
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain, combinations, repeat
from operator import gt, itemgetter
from typing import Mapping, NamedTuple

from . import _kernels
from .codes import (
    DoublyEvenCode,
    LinearBinaryCode,
    bit_string,
    canonical_representative,
    color_bit,
    parse_bit_string,
    weight,
)
from .errors import InputError


_pause_lock = threading.Lock()
_pause_depth = 0  # paused builds running, in any thread
_pause_owned = False  # whether the first one switched the collector off


def _collector_paused(build):
    """`build` run with the cyclic collector off, for builders that make
    one tracked tuple per edge, plaquette or step and no reference cycle.

    CPython never untracks a tuple subclass, so each full collection
    during such a build walks every tuple made so far.  The pause is
    process-wide.  Paused builds are counted across threads, and the
    last one to end switches the collector back on, when it returns or
    raises, and only if the first one switched it off: a nested or
    overlapping paused build, or a caller that turned it off, finds it
    as it left it.  A collector that another thread turns off during a
    pause is still switched back on when the pause ends."""

    @wraps(build)
    def paused(*args, **kwargs):
        global _pause_depth, _pause_owned
        with _pause_lock:
            if not _pause_depth:
                _pause_owned = gc.isenabled()
                gc.disable()
            _pause_depth += 1
        try:
            return build(*args, **kwargs)
        finally:
            with _pause_lock:
                _pause_depth -= 1
                if not _pause_depth and _pause_owned:
                    gc.enable()

    return paused


class Edge(NamedTuple):
    """Undirected colored edge with endpoints ordered u < v."""

    u: int
    v: int
    color: int


class Plaquette(NamedTuple):
    """Two-color four-cycle, traversed base -> I -> J -> I -> J -> base.

    `corners` lists the four nodes in traversal order starting at the
    minimum node; `edges` lists the traversed edges in the same order,
    each in canonical (u < v) form.
    """

    base: int
    colors: tuple[int, int]
    corners: tuple[int, int, int, int]
    edges: tuple[Edge, Edge, Edge, Edge]


class _PlaquetteTable:
    """A graph's plaquettes, built on first use, and the integer tables
    propagation reads, built on the first propagation.

    An edge's id is its position in the graph's `edges`.  `index` maps
    each `Edge` to its id; `quads[j]` holds the ids of plaquette j's
    edges in traversal order; `incidence[i]` holds the plaquettes through
    edge i as two ascending lists (onto_u, onto_v): those whose traversal
    steps along edge i onto its end u, and those stepping onto v.
    `program` is the compiled NDXOR schedule of the baobab slots (see
    `baobab._ndxor_program`), and `tree` the canonical spanning tree (see
    `baobab.skeleton_tree`).  `layout` holds the graph's edges over node
    ranks (`_edge_ranks`), and `ranks` its `_RankPlanes`.
    `quotient` is the cached verdict of `_graph_table`: set by the
    builders, or once a graph is found to be its code's quotient.
    Adinkras on the same graph share one table."""

    __slots__ = ("plaquettes", "index", "quads", "incidence", "program",
                 "tree", "layout", "ranks", "quotient", "__weakref__")

    def __init__(self):
        self.plaquettes = self.index = self.quads = self.incidence = None
        self.program = self.tree = self.layout = self.ranks = None
        self.quotient = False

    @_collector_paused
    def fill_ids(self, edges) -> None:
        """Build the id tables of `self.plaquettes` over `edges`."""
        index = {e: i for i, e in enumerate(edges)}
        plaqs = self.plaquettes
        quads = [(index[a], index[b], index[c], index[d])
                 for _, _, _, (a, b, c, d) in plaqs]
        onto_u, onto_v = [[] for _ in edges], [[] for _ in edges]
        # edge k runs from corners[k] to corners[k + 1], and corners[0] is
        # the least: edge 0 lands on its end v, edge 3 on its end u
        for j, (i0, i1, i2, i3), (_, _, (_, c1, c2, c3), _) in zip(
                range(len(plaqs)), quads, plaqs):
            onto_v[i0].append(j)
            (onto_v if c2 > c1 else onto_u)[i1].append(j)
            (onto_v if c3 > c2 else onto_u)[i2].append(j)
            onto_u[i3].append(j)
        self.index, self.quads = index, quads
        self.incidence = list(zip(onto_u, onto_v))


@dataclass(frozen=True)
class Adinkra:
    """A chromotopology with optional dashing and heights.

    Its nodes and edges must be those `build_chromotopology` lists for
    its n and code; every reader of its structure refuses any other
    graph with one InputError (`_graph_table`)."""

    n: int
    code: LinearBinaryCode
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    dashing: Mapping[Edge, int] | None = None
    heights: Mapping[int, int] | None = None
    # Shared with the adinkras `_decorated` makes; outside equality,
    # hashing and repr, and `dataclasses.replace` starts a fresh one.
    _table: _PlaquetteTable = field(
        init=False, default_factory=_PlaquetteTable, repr=False,
        compare=False, hash=False,
    )

    @property
    def length(self) -> int:
        """Label bit length (number of edge colors)."""
        return self.code.length

    def colors(self) -> range:
        return range(1, self.length + 1)

    def _decorated(self, dashing, heights) -> "Adinkra":
        """The same graph with other dashing and heights; it shares this
        graph's plaquette table."""
        out = Adinkra(self.n, self.code, self.nodes, self.edges,
                      dashing, heights)
        object.__setattr__(out, "_table", self._table)
        return out

    def with_dashing(self, dashing) -> "Adinkra":
        return self._decorated(dict(dashing), self.heights)

    def with_heights(self, heights) -> "Adinkra":
        return self._decorated(self.dashing, dict(heights))

    def skeleton(self) -> "Adinkra":
        return self._decorated(None, None)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a structural check; falsy when violations exist."""

    check: str
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return f"{self.check}: ok"
        return f"{self.check}: {len(self.violations)} violation(s)"


# ---------- construction ----------


def _color_steps(code: LinearBinaryCode) -> tuple[int, ...]:
    """d_I, the representative of e_I, at index I (index 0 is unused):
    color I moves node x to x ^ d_I, again a representative."""
    length = code.length
    return (0,) + tuple(
        canonical_representative(color_bit(c, length), code)
        for c in range(1, length + 1)
    )


def _quotient_steps(n: int, code: LinearBinaryCode) -> tuple[int, ...]:
    """The color steps, once L = n + k and the size guard hold."""
    length = code.length
    if length != n + code.k:
        raise InputError(
            f"code length {length} must equal n + k = {n} + {code.k}"
        )
    _kernels.check_guard(n, "quotient construction")
    steps = _color_steps(code)
    if 0 in steps[1:]:
        raise InputError(
            f"color {steps.index(0, 1)} fixes node {bit_string(0, length)}; "
            "generator equals a coordinate vector"
        )
    return steps


def _quotient_nodes_edges(n: int, code: LinearBinaryCode):
    steps = _quotient_steps(n, code)
    length = code.length
    # deposit the bits of a counter into the non-pivot positions, low
    # position first, which lists the representatives in ascending order
    pivots = {g.bit_length() - 1 for g in code.generators}
    nodes = [0]
    for p in range(length):
        if p not in pivots:
            nodes += [x | 1 << p for x in nodes]
    # every endpoint is the node list's own int, not an equal new one;
    # u < u ^ d exactly when u is zero at the leading bit of d
    own = dict(zip(nodes, nodes))
    moves = [(c, d, 1 << (d.bit_length() - 1))
             for c, d in enumerate(steps[1:], 1)]
    new = tuple.__new__  # Edge(...) without its Python-level __new__
    edges = [
        new(Edge, (u, own[u ^ d], color))
        for u in nodes
        for color, d, top in moves
        if not u & top
    ]
    return tuple(nodes), tuple(edges)


def _quotient(n: int, code: LinearBinaryCode) -> Adinkra:
    """The bare quotient graph, its table marked as one (`_graph_table`)."""
    out = Adinkra(n, code, *_quotient_nodes_edges(n, code))
    out._table.quotient = True
    return out


def build_chromotopology(n: int, code) -> Adinkra:
    """Quotient the n-cube's color structure by a doubly even code.

    `code` may be a DoublyEvenCode or an iterable of generator
    bitstrings (length n + k each).  The result is a bare skeleton:
    no dashing, no heights.
    """
    return _quotient(n, chromotopology_code(n, code))


def chromotopology_code(n: int, code) -> DoublyEvenCode:
    """The code `build_chromotopology(n, code)` quotients by, after every
    check it makes (n, doubly evenness, L = n + k, size guard), but
    without building the graph."""
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if not isinstance(code, LinearBinaryCode):
        strings = list(code)
        code = (
            DoublyEvenCode.from_strings(strings)
            if strings
            else DoublyEvenCode(n, ())
        )
    if not isinstance(code, DoublyEvenCode):
        # Re-validate plain linear codes through the doubly even gate.
        code = DoublyEvenCode(code.length, code.generators)
    _quotient_steps(n, code)
    return code


def build_quotient_skeleton(n: int, code: LinearBinaryCode) -> Adinkra:
    """Quotient construction without the doubly even requirement.

    Needed for graphs such as the quaternion family, whose code has
    odd-weight words and therefore no consistent boson/fermion split.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    return _quotient(n, code)


# ---------- basic structure ----------


def is_boson(label: int) -> bool:
    """Even-weight labels are bosons; doubly even quotients preserve this."""
    return weight(label) % 2 == 0


def boson_nodes(adinkra: Adinkra) -> tuple[int, ...]:
    return tuple(x for x in adinkra.nodes if is_boson(x))


def fermion_nodes(adinkra: Adinkra) -> tuple[int, ...]:
    return tuple(x for x in adinkra.nodes if not is_boson(x))


def neighbor(adinkra: Adinkra, node: int, color: int) -> int:
    return canonical_representative(
        node ^ color_bit(color, adinkra.length), adinkra.code
    )


def edge_between(adinkra: Adinkra, a: int, b: int, color: int) -> Edge:
    return Edge(min(a, b), max(a, b), color)


def _graph_table(adinkra: Adinkra) -> _PlaquetteTable:
    """The graph's shared plaquette table, once the graph is known to be
    its code's quotient: the node list and edge list that
    `build_chromotopology` makes, every node, endpoint and color an int.
    Every reader of a graph's structure comes through here.

    The builders mark their tables, and `_decorated` copies share them,
    so for those this is one flag read.  Any other graph (built by hand,
    or a `dataclasses.replace` copy) is compared once per table."""
    table = adinkra._table
    if not table.quotient:
        nodes, edges = adinkra.nodes, adinkra.edges
        if ((nodes, edges) != _quotient_nodes_edges(adinkra.n, adinkra.code)
                or not {int}.issuperset(map(type, chain(nodes, *edges)))):
            raise InputError("graph is not the quotient of its code")
        table.quotient = True
    return table


def plaquettes(adinkra: Adinkra) -> tuple[Plaquette, ...]:
    """All two-color four-cycles in canonical (I, J, base) order.

    The cycle of colors I, J through x is {x, x^d_I, x^d_I^d_J, x^d_J};
    each is listed once, from its minimum node.  They are built once per
    graph and shared by every adinkra on it (see `Adinkra._decorated`).
    """
    table = _graph_table(adinkra)
    if table.plaquettes is None:
        table.plaquettes = _build_plaquettes(adinkra)
    return table.plaquettes


def _plaquette_ids(adinkra: Adinkra) -> _PlaquetteTable:
    """The graph's plaquette table with its id tables built (once per
    graph, like `plaquettes`)."""
    table = _graph_table(adinkra)
    if table.quads is None:
        plaquettes(adinkra)
        table.fill_ids(adinkra.edges)
    return table


def _spanning_steps(adinkra: Adinkra) -> tuple[int, ...]:
    """The color steps (`_color_steps`), checked to be distinct, so that
    every two colors span four-cycles."""
    steps = _color_steps(adinkra.code)
    for ci, cj in combinations(range(1, len(steps)), 2):
        if steps[ci] == steps[cj]:
            raise InputError(
                f"colors ({ci}, {cj}) do not span a four-cycle at "
                f"{bit_string(adinkra.nodes[0], adinkra.length)}"
            )
    return steps


def _edge_ranks(adinkra: Adinkra) -> tuple[tuple[int, ...], list[array]]:
    """(deltas, at): the color steps over node ranks and, per color c,
    the id of the color-c edge at every rank, built once per graph like
    `plaquettes`.  A node's rank is its position in `nodes`.  Ranks
    deposit into the non-pivot bits in order, so the rank map is linear
    and keeps order: color c moves rank r to r ^ δ_c, with δ_c
    (`deltas[c]`) the rank of d_c, and at[c][r] = at[c][r ^ δ_c].  The
    steps must be distinct (`_spanning_steps`)."""
    table = _graph_table(adinkra)
    if table.layout is None:
        nodes = adinkra.nodes
        size = len(nodes)
        rank = dict(zip(nodes, range(size)))
        deltas = tuple(map(rank.__getitem__, _spanning_steps(adinkra)))
        at = [[]] + [[0] * size for _ in deltas[1:]]
        for i, (u, v, c) in enumerate(adinkra.edges):
            side = at[c]
            side[rank[u]] = side[rank[v]] = i
        # kept at four bytes an id, not an int object per edge
        table.layout = deltas, [array("I", ids) for ids in at]
    return table.layout


def _gather(ranks: list[int]):
    """itemgetter(*ranks), returning a tuple for one rank too."""
    if len(ranks) == 1:
        (r,) = ranks
        return lambda items: (items[r],)
    return itemgetter(*ranks)


@_collector_paused
def _build_plaquettes(adinkra: Adinkra) -> tuple[Plaquette, ...]:
    deltas, at = _edge_ranks(adinkra)
    nodes, edges = adinkra.nodes, adinkra.edges
    top = len(nodes).bit_length() - 1  # the number of rank bits
    # per color, the graph's own edge at each rank
    on = [()] + [itemgetter(*ids)(edges) for ids in at[1:]]
    far_end = itemgetter(1)
    new = tuple.__new__  # Plaquette(...) without its Python-level __new__
    out = []
    bases_for = {}  # pairs with the same two leading bits share their bases
    for ci, cj in combinations(range(1, len(deltas)), 2):
        di, dj = deltas[ci], deltas[cj]
        # r < r ^ δ exactly when r is zero at the leading bit of δ.  Two of
        # δi, δj, δi ^ δj share the leading bit of the largest and the
        # smallest has a lower one (the pair is an echelon basis of the
        # span), so r is the least corner of its cycle exactly when it is
        # zero on both of those bits; the other bits list the bases.
        span = (di, dj, di ^ dj)
        lead = 1 << (max(span).bit_length() - 1)
        lead |= 1 << (min(span).bit_length() - 1)
        bases = bases_for.get(lead)
        if bases is None:
            bases = bases_for[lead] = [0]
            for bit in (1 << b for b in range(top)):
                if not bit & lead:
                    bases += [*map(bit.__or__, bases)]
        at_base = _gather(bases)
        at_far = _gather([*map((di ^ dj).__xor__, bases)])
        on_i, on_j = on[ci], on[cj]
        corners = at_base(nodes)
        # the edges at the base lead up to its neighbours a and c, and the
        # far corner b = a ^ δj = c ^ δi carries the other two
        e0, e3 = at_base(on_i), at_base(on_j)
        out += map(new, repeat(Plaquette), zip(
            corners, repeat((ci, cj)),
            zip(corners, map(far_end, e0), at_far(nodes), map(far_end, e3)),
            zip(e0, at_far(on_j), at_far(on_i), e3),
        ))
    return tuple(out)


def plaquette_count(adinkra: Adinkra) -> int:
    length, n = adinkra.length, adinkra.n
    if n < 2:
        return 0
    return length * (length - 1) // 2 * (1 << (n - 2))


# ---------- node-rank planes ----------


_BITS = bytes.maketrans(b"\x00\x01", b"01")  # 0/1 bytes to binary digits
_DASHED = bytes.maketrans(b"\xff\x01", b"\x01\x00")  # int8 signs to 0/1


class _RankPlanes(NamedTuple):
    """A graph's edges as bit planes over node ranks.

    A node's rank is its position in `nodes`.  Color c moves rank r to
    r ^ δ_c, with δ_c (`deltas[c]`) the rank of d_c, so a property of
    every color-c edge end is one `size`-bit int per color, bit r at the
    end on rank r (bit-slicing, as in Biham, "A fast new DES
    implementation in software", FSE 1997).  `masks[b]` marks the ranks
    whose bit b is clear.  A property's binary digits run color after
    color, rank size - 1 down to 0 within each: `edge_at` picks, from
    one item per edge, the item of the edge on each digit, and `across`
    picks, from one item per rank, the item of the rank the edge on
    each digit leads to."""

    size: int
    deltas: tuple[int, ...]
    masks: list[int]
    edge_at: itemgetter
    across: itemgetter

    def planes(self, flags: bytes) -> list[int]:
        """One plane per color (index 0 is unused) from a 0/1 byte per
        digit."""
        digits = flags.translate(_BITS)
        size = self.size
        return [0] + [int(digits[k:k + size], 2)
                      for k in range(0, len(digits), size)]

    def rising(self, levels: list) -> list[int]:
        """The up plane of every color from one height per rank: bit r
        is set where the edge at rank r rises as it leaves r."""
        own = levels[::-1] * (len(self.deltas) - 1)
        return self.planes(bytes(map(gt, self.across(levels), own)))

    def dashed(self, signs) -> list[int]:
        """The dashed-end plane of every color, from the signs of
        `checked_signs`: bit r is set where the edge at rank r is -1."""
        flags = array("b", signs).tobytes().translate(_DASHED)
        return self.planes(bytes(self.edge_at(flags)))

    def swaps(self, lanes: int = 1) -> list[tuple[tuple[int, int], ...]]:
        """Per color c, the (shift, mask) pair of each set bit b of δ_c,
        the mask repeated over `lanes` planes side by side: `_moved`
        applies them in turn to take every bit r of a plane to r ^ δ_c
        (the delta swap of Knuth, TAOCP 4A, §7.1.3)."""
        masks = []
        for m in self.masks:
            for _ in range(lanes - 1):
                m |= m << self.size
            masks.append(m)
        return [tuple((1 << b, m) for b, m in enumerate(masks) if d >> b & 1)
                for d in self.deltas]


def _moved(word: int, swaps) -> int:
    """`word` with each bit r of every plane moved to r ^ δ, for the
    `_RankPlanes.swaps` of δ."""
    for shift, mask in swaps:
        word = (word & mask) << shift | (word >> shift) & mask
    return word


def _rank_planes(adinkra: Adinkra) -> _RankPlanes:
    """The graph's node-rank planes, built once per graph like
    `plaquettes`, from the edges over ranks of `_edge_ranks`: one edge
    on each (color, rank)."""
    table = _graph_table(adinkra)
    if table.ranks is None:
        table.ranks = _build_rank_planes(adinkra)
    return table.ranks


def _build_rank_planes(adinkra: Adinkra) -> _RankPlanes:
    deltas, at = _edge_ranks(adinkra)
    size = len(adinkra.nodes)
    # the digit of color c at rank r is c * size - 1 - r; each edge id is
    # one int object, shared by the edge's two digits
    digits = chain.from_iterable(ids[::-1] for ids in at[1:])
    slots = itemgetter(*itemgetter(*digits)(tuple(range(len(adinkra.edges)))))
    masks = [int(("0" * s + "1" * s) * (size // (2 * s)), 2)
             for s in (1 << b for b in range(size.bit_length() - 1))]
    across = itemgetter(*[r ^ d for d in deltas[1:]
                          for r in range(size - 1, -1, -1)])
    return _RankPlanes(size, deltas, masks, slots, across)


# ---------- verification ----------


def checked_signs(adinkra: Adinkra) -> list[int] | None:
    """The dashing sign of every edge, in edge order, checked to be the
    int +1 or -1; None if the adinkra has no dashing."""
    dashing = adinkra.dashing
    if dashing is None:
        return None
    edges = adinkra.edges
    signs = list(map(dashing.get, edges))  # None where missing
    # types first: a bool, a float or an unhashable sign fails there
    if {int}.issuperset(map(type, signs)) and {1, -1}.issuperset(signs):
        return signs
    missing = [e for e in edges if e not in dashing]
    if missing:
        raise InputError(f"dashing missing for edges: {missing[:4]}")
    for e, s in zip(edges, signs):
        if not json_int(s) or s not in (1, -1):
            raise InputError(f"dashing sign for {e} must be +1 or -1, got {s}")
    return signs


def _odd_planes(ranks: _RankPlanes, a: list[int]) -> bool:
    """Whether the dashed-end planes `a` (`_RankPlanes.dashed`) put an
    odd number of dashed edges on every plaquette."""
    swaps = ranks.swaps()
    full = (1 << ranks.size) - 1
    return all(a[i] ^ a[j] ^ _moved(a[j], swaps[i]) ^ _moved(a[i], swaps[j])
               == full for i, j in combinations(range(1, len(a)), 2))


def verify_odd_dashing(adinkra: Adinkra) -> VerificationReport:
    """Check every plaquette carries an odd number of dashed edges.

    The signs become one dashed-end plane A_c per color (`_rank_planes`),
    and plaquette (I, J) at every rank r is odd exactly when bit r of
    A_I ^ A_J ^ σ_I(A_J) ^ σ_J(A_I) is set, σ_c moving bit r to r ^ δ_c.
    Only when some pair fails are the plaquettes walked for the report."""
    signs = checked_signs(adinkra)
    if signs is None:
        raise InputError("adinkra has no dashing to verify")
    ranks = _rank_planes(adinkra)
    if _odd_planes(ranks, ranks.dashed(signs)):
        return VerificationReport("odd-dashing", ())
    dashing = adinkra.dashing
    bad = []
    for p in plaquettes(adinkra):
        sign = 1
        for e in p.edges:
            sign *= dashing[e]
        if sign != -1:
            bad.append(p)
    return VerificationReport("odd-dashing", tuple(bad))


def checked_heights(adinkra: Adinkra, absent: str) -> Mapping[int, int]:
    """The adinkra's heights, checked to give every node an integer (a
    bool too, as in `from_json`); InputError `absent` when it has none."""
    heights = adinkra.heights
    if heights is None:
        raise InputError(absent)
    missing = [x for x in adinkra.nodes if x not in heights]
    if missing:
        raise InputError(f"heights missing for nodes: {missing[:4]}")
    for x in adinkra.nodes:
        if not isinstance(heights[x], int):
            label = bit_string(x, adinkra.length)
            raise InputError(f"height for {label!r} must be an integer")
    return heights


def verify_heights(adinkra: Adinkra) -> VerificationReport:
    """Check adjacent nodes sit at heights differing by exactly one."""
    heights = checked_heights(adinkra, "adinkra has no heights to verify")
    bad = tuple(
        e for e in adinkra.edges if abs(heights[e.u] - heights[e.v]) != 1
    )
    return VerificationReport("heights", bad)


# ---------- standard height assignments ----------


def valise_heights(adinkra: Adinkra) -> dict[int, int]:
    """Bosons at height 0, fermions at height 1."""
    return {x: 0 if is_boson(x) else 1 for x in adinkra.nodes}


def weight_heights(adinkra: Adinkra) -> dict[int, int]:
    """Fully extended heights: each node at its Hamming weight.

    Only well-defined when no quotient is involved (k = 0); a quotient
    can map neighbors to representatives whose weights differ by more
    than one.
    """
    if adinkra.code.k != 0:
        raise InputError("weight heights require k = 0 (no quotient)")
    return {x: weight(x) for x in adinkra.nodes}


def normalize_heights(heights: Mapping[int, int]) -> dict[int, int]:
    """Shift heights so the minimum is zero."""
    low = min(heights.values())
    return {x: h - low for x, h in heights.items()}


# ---------- serialization ----------


def _json_rows(rows: list[str]) -> str:
    """A top-level value's array in the `json.dumps(indent=2)` layout,
    from rows already indented to depth 2."""
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def to_json(adinkra: Adinkra) -> str:
    """Canonical JSON form; byte-stable for equal adinkras.

    The text is `json.dumps(indent=2)` of {n, code_generators, nodes,
    edges} plus a newline, written row by row without the encoder.
    """
    fmt = f"0{adinkra.length}b"
    label = {x: format(x, fmt) for x in adinkra.nodes}
    if adinkra.heights is None:
        heights = ["null"] * len(adinkra.nodes)
    else:
        # a bool height, which from_json accepts, renders as in json.dumps
        heights = [json_scalar(adinkra.heights[x]) for x in adinkra.nodes]
    dashed = (
        ["null"] * len(adinkra.edges) if adinkra.dashing is None
        else ["true" if adinkra.dashing[e] == -1 else "false"
              for e in adinkra.edges]
    )
    gens = [f'    "{g}"' for g in adinkra.code.generator_strings()]
    nodes = [
        f'    {{\n      "label": "{label[x]}",\n      "height": {h}\n    }}'
        for x, h in zip(adinkra.nodes, heights)
    ]
    edges = [
        f'    {{\n      "u": "{label[e.u]}",\n      "v": "{label[e.v]}",\n'
        f'      "color": {e.color},\n      "dashed": {d}\n    }}'
        for e, d in zip(adinkra.edges, dashed)
    ]
    return (
        f'{{\n  "n": {adinkra.n},\n'
        f'  "code_generators": {_json_rows(gens)},\n'
        f'  "nodes": {_json_rows(nodes)},\n'
        f'  "edges": {_json_rows(edges)}\n}}\n'
    )


def json_int(value) -> bool:
    """Whether a decoded JSON value is an integer; `true` and `false`
    decode to bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_scalar(value) -> str:
    """A JSON scalar as `json.dumps` writes it: a plain int without the
    encoder, anything else (a bool, a float, a string) through it."""
    return str(value) if type(value) is int else json.dumps(value)


def load_json_object(text: str, keys) -> dict:
    """Decode a JSON object that carries every one of `keys`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise InputError(f"missing key {key!r}")
    return obj


def json_object_rows(obj: dict, key: str, fields) -> list[dict]:
    """obj[key] as a list of JSON objects that each carry `fields`."""
    rows = obj[key]
    if not isinstance(rows, list):
        raise InputError(f"{key!r} must be a list, got {rows!r}")
    for row in rows:
        if not isinstance(row, dict):
            raise InputError(f"{key!r} entries must be objects, got {row!r}")
        for field in fields:
            if field not in row:
                raise InputError(f"{key!r} entry {row!r} lacks {field!r}")
    return rows


def json_header(obj: dict) -> tuple[int, list]:
    """The `n` and `code_generators` of an adinkra or baobab document,
    checked to be an integer and a list; `chromotopology_code` checks
    the family they name."""
    n = obj["n"]
    if not json_int(n):
        raise InputError(f"invalid n: {n!r}")
    gens = obj["code_generators"]
    if not isinstance(gens, list):
        raise InputError(f"code_generators must be a list, got {gens!r}")
    return n, gens


def json_edge(row: dict, length: int) -> Edge:
    """An edge row's `Edge`, checked in this order: both labels `length`
    bits long, the color an integer, u < v."""
    u, gu = parse_bit_string(row["u"])
    v, gv = parse_bit_string(row["v"])
    if gu != length or gv != length:
        raise InputError(f"edge endpoints must be {length}-bit labels")
    color = row["color"]
    if not json_int(color):
        raise InputError(f"edge color must be an integer, got {color!r}")
    if u >= v:
        raise InputError(f"edge endpoints must satisfy u < v, got {row}")
    return Edge(u, v, color)


@_collector_paused
def from_json(text: str) -> Adinkra:
    """Parse and fully validate the canonical JSON form.

    Runs with the cyclic collector paused for the whole process (see
    `_collector_paused`)."""
    obj = load_json_object(text, ("n", "code_generators", "nodes", "edges"))
    expect = build_chromotopology(*json_header(obj))
    length = expect.length
    label = {x: format(x, f"0{length}b") for x in expect.nodes}

    # A row that renders the skeleton's own node is taken as it stands;
    # any other row is parsed, which raises the same errors in order.
    labels = []
    heights = []
    rows = json_object_rows(obj, "nodes", ("label",))
    for row, x in zip(rows, chain(expect.nodes, repeat(None))):
        if x is None or row["label"] != label[x]:
            x, got = parse_bit_string(row["label"])
            if got != length:
                raise InputError(
                    f"label {row['label']!r} is not {length} bits")
        labels.append(x)
        h = row.get("height")
        if h is not None and not isinstance(h, int):
            raise InputError(f"height for {row['label']!r} must be an integer")
        heights.append(h)
    if tuple(labels) != expect.nodes:
        raise InputError("node list does not match the canonical quotient order")
    if len({h is None for h in heights}) > 1:
        raise InputError("heights must be given for all nodes or none")

    # A row that renders the skeleton's own edge needs no further check.
    # Any other row is checked in full, which raises the same errors in
    # the same order, and a mismatch is raised once every row is read.
    matched = True
    flags = []
    rows = json_object_rows(obj, "edges", ("u", "v", "color"))
    for row, e in zip(rows, chain(expect.edges, repeat(None))):
        color = row["color"]
        if (e is None or type(color) is not int or color != e.color
                or row["u"] != label[e.u] or row["v"] != label[e.v]):
            matched = json_edge(row, length) == e and matched
        d = row.get("dashed")
        if d is not None and not isinstance(d, bool):
            raise InputError(f"dashed flag must be boolean, got {d!r}")
        flags.append(d)
    if not matched or len(rows) != len(expect.edges):
        raise InputError("edge list does not match the canonical quotient order")
    if len({d is None for d in flags}) > 1:
        raise InputError("dashed flags must be given for all edges or none")
    # keyed by the skeleton's own nodes and edges, as its plaquettes are
    dashing = None if flags[0] is None else {
        e: -1 if d else 1 for e, d in zip(expect.edges, flags)
    }
    heights = None if heights[0] is None else dict(zip(expect.nodes, heights))
    return expect._decorated(dashing, heights)
