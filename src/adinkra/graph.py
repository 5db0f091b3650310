"""Chromotopology graphs: hypercubes quotiented by binary codes.

Nodes are canonical coset representatives (minimum label in the coset),
kept as integers over length-L bitstrings with color 1 flipping the most
significant bit.  Edge color I joins x to the representative of
x XOR e_I.  Dashing is a sign per edge (+1 plain, -1 dashed) and heights
are integers per node with adjacent nodes differing by exactly one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, NamedTuple

from .codes import (
    DoublyEvenCode,
    LinearBinaryCode,
    bit_string,
    color_bit,
    coset_table,
    parse_bit_string,
    weight,
)
from .errors import InputError

_MAX_LENGTH = 22  # keeps the coset table comfortably in memory


class Edge(NamedTuple):
    """Undirected colored edge with endpoints ordered u < v."""

    u: int
    v: int
    color: int


@dataclass(frozen=True)
class Plaquette:
    """Two-color four-cycle, traversed base -> I -> J -> I -> J -> base.

    `corners` lists the four nodes in traversal order starting at the
    minimum node; `edges` lists the traversed edges in the same order,
    each in canonical (u < v) form.
    """

    base: int
    colors: tuple[int, int]
    corners: tuple[int, int, int, int]
    edges: tuple[Edge, Edge, Edge, Edge]

    def trail(self):
        """Steps (from_node, to_node, edge) around the cycle."""
        c = self.corners
        return tuple(
            (c[i], c[(i + 1) % 4], self.edges[i]) for i in range(4)
        )


@dataclass(frozen=True)
class Adinkra:
    """A chromotopology with optional dashing and heights."""

    n: int
    code: LinearBinaryCode
    nodes: tuple[int, ...]
    edges: tuple[Edge, ...]
    dashing: Mapping[Edge, int] | None = None
    heights: Mapping[int, int] | None = None

    @property
    def length(self) -> int:
        """Label bit length (number of edge colors)."""
        return self.code.length

    def colors(self) -> range:
        return range(1, self.length + 1)

    def with_dashing(self, dashing) -> "Adinkra":
        return Adinkra(self.n, self.code, self.nodes, self.edges,
                       dict(dashing), self.heights)

    def with_heights(self, heights) -> "Adinkra":
        return Adinkra(self.n, self.code, self.nodes, self.edges,
                       self.dashing, dict(heights))

    def skeleton(self) -> "Adinkra":
        return Adinkra(self.n, self.code, self.nodes, self.edges)


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


def _quotient_nodes_edges(n: int, code: LinearBinaryCode):
    length = code.length
    if length != n + code.k:
        raise InputError(
            f"code length {length} must equal n + k = {n} + {code.k}"
        )
    if length > _MAX_LENGTH:
        raise InputError(f"label length {length} exceeds supported {_MAX_LENGTH}")
    table = coset_table(code)
    nodes = tuple(sorted(x for x in range(1 << length) if table[x] == x))
    if len(nodes) != 1 << n:
        raise InputError(
            f"quotient has {len(nodes)} cosets, expected {1 << n}"
        )
    edges = []
    for u in nodes:
        for color in range(1, length + 1):
            v = table[u ^ color_bit(color, length)]
            if u == v:
                raise InputError(
                    f"color {color} fixes node {bit_string(u, length)}; "
                    "generator equals a coordinate vector"
                )
            if u < v:
                edges.append(Edge(u, v, color))
    edges.sort(key=lambda e: (e.u, e.color))
    assert len(edges) == length * (1 << (n - 1))
    return nodes, tuple(edges)


def build_chromotopology(n: int, code) -> Adinkra:
    """Quotient the n-cube's color structure by a doubly even code.

    `code` may be a DoublyEvenCode or an iterable of generator
    bitstrings (length n + k each).  The result is a bare skeleton:
    no dashing, no heights.
    """
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
    nodes, edges = _quotient_nodes_edges(n, code)
    return Adinkra(n, code, nodes, edges)


def build_quotient_skeleton(n: int, code: LinearBinaryCode) -> Adinkra:
    """Quotient construction without the doubly even requirement.

    Needed for graphs such as the quaternion family, whose code has
    odd-weight words and therefore no consistent boson/fermion split.
    """
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    nodes, edges = _quotient_nodes_edges(n, code)
    return Adinkra(n, code, nodes, edges)


# ---------- basic structure ----------


def is_boson(label: int) -> bool:
    """Even-weight labels are bosons; doubly even quotients preserve this."""
    return weight(label) % 2 == 0


def boson_nodes(adinkra: Adinkra) -> tuple[int, ...]:
    return tuple(x for x in adinkra.nodes if is_boson(x))


def fermion_nodes(adinkra: Adinkra) -> tuple[int, ...]:
    return tuple(x for x in adinkra.nodes if not is_boson(x))


def neighbor(adinkra: Adinkra, node: int, color: int) -> int:
    table = coset_table(adinkra.code)
    return table[node ^ color_bit(color, adinkra.length)]


def edge_between(adinkra: Adinkra, a: int, b: int, color: int) -> Edge:
    return Edge(min(a, b), max(a, b), color)


def plaquettes(adinkra: Adinkra) -> tuple[Plaquette, ...]:
    """All two-color four-cycles in canonical (I, J, base) order."""
    table = coset_table(adinkra.code)
    length = adinkra.length
    out = []
    for ci, cj in combinations(range(1, length + 1), 2):
        ei, ej = color_bit(ci, length), color_bit(cj, length)
        seen = set()
        for base in adinkra.nodes:
            if base in seen:
                continue
            a = table[base ^ ei]
            b = table[base ^ ei ^ ej]
            c = table[base ^ ej]
            orbit = {base, a, b, c}
            if len(orbit) != 4:
                raise InputError(
                    f"colors ({ci}, {cj}) do not span a four-cycle at "
                    f"{bit_string(base, length)}"
                )
            seen |= orbit
            corners = (base, a, b, c)
            edges = (
                edge_between(adinkra, base, a, ci),
                edge_between(adinkra, a, b, cj),
                edge_between(adinkra, b, c, ci),
                edge_between(adinkra, c, base, cj),
            )
            out.append(Plaquette(base, (ci, cj), corners, edges))
    return tuple(out)


def plaquette_masks(adinkra: Adinkra) -> tuple[int, ...]:
    """One parity-check mask per plaquette, in `plaquettes` order: bit i
    is set when edge i (canonical edge order) lies on the plaquette."""
    index = {e: i for i, e in enumerate(adinkra.edges)}
    masks = []
    for p in plaquettes(adinkra):
        mask = 0
        for e in p.edges:
            mask |= 1 << index[e]
        masks.append(mask)
    return tuple(masks)


def plaquette_count(adinkra: Adinkra) -> int:
    length, n = adinkra.length, adinkra.n
    if n < 2:
        return 0
    return length * (length - 1) // 2 * (1 << (n - 2))


# ---------- verification ----------


def verify_odd_dashing(adinkra: Adinkra) -> VerificationReport:
    """Check every plaquette carries an odd number of dashed edges."""
    if adinkra.dashing is None:
        raise InputError("adinkra has no dashing to verify")
    dashing = adinkra.dashing
    missing = [e for e in adinkra.edges if e not in dashing]
    if missing:
        raise InputError(f"dashing missing for edges: {missing[:4]}")
    bad = []
    for p in plaquettes(adinkra):
        sign = 1
        for e in p.edges:
            s = dashing[e]
            if s not in (1, -1):
                raise InputError(f"dashing sign for {e} must be +1 or -1, got {s}")
            sign *= s
        if sign != -1:
            bad.append(p)
    return VerificationReport("odd-dashing", tuple(bad))


def verify_heights(adinkra: Adinkra) -> VerificationReport:
    """Check adjacent nodes sit at heights differing by exactly one."""
    if adinkra.heights is None:
        raise InputError("adinkra has no heights to verify")
    heights = adinkra.heights
    missing = [x for x in adinkra.nodes if x not in heights]
    if missing:
        raise InputError(f"heights missing for nodes: {missing[:4]}")
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


def to_json(adinkra: Adinkra) -> str:
    """Canonical JSON form; byte-stable for equal adinkras."""
    length = adinkra.length
    heights = adinkra.heights
    dashing = adinkra.dashing
    obj = {
        "n": adinkra.n,
        "code_generators": list(adinkra.code.generator_strings()),
        "nodes": [
            {
                "label": bit_string(x, length),
                "height": None if heights is None else heights[x],
            }
            for x in adinkra.nodes
        ],
        "edges": [
            {
                "u": bit_string(e.u, length),
                "v": bit_string(e.v, length),
                "color": e.color,
                "dashed": None if dashing is None else dashing[e] == -1,
            }
            for e in adinkra.edges
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


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


def from_json(text: str) -> Adinkra:
    """Parse and fully validate the canonical JSON form."""
    obj = load_json_object(text, ("n", "code_generators", "nodes", "edges"))
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError(f"invalid n: {n!r}")
    gens = obj["code_generators"]
    if not isinstance(gens, list):
        raise InputError(f"code_generators must be a list, got {gens!r}")
    code = (
        DoublyEvenCode.from_strings(gens) if gens else DoublyEvenCode(n, ())
    )
    expect = build_chromotopology(n, code)
    length = expect.length

    labels = []
    heights = {}
    height_seen = set()
    for row in json_object_rows(obj, "nodes", ("label",)):
        label, got = parse_bit_string(row["label"])
        if got != length:
            raise InputError(f"label {row['label']!r} is not {length} bits")
        labels.append(label)
        h = row.get("height")
        if h is not None:
            if not isinstance(h, int):
                raise InputError(f"height for {row['label']!r} must be an integer")
            heights[label] = h
        height_seen.add(h is not None)
    if tuple(labels) != expect.nodes:
        raise InputError("node list does not match the canonical quotient order")
    if len(height_seen) > 1:
        raise InputError("heights must be given for all nodes or none")
    has_heights = height_seen == {True}

    edges = []
    dashing = {}
    dash_seen = set()
    for row in json_object_rows(obj, "edges", ("u", "v", "color")):
        u, gu = parse_bit_string(row["u"])
        v, gv = parse_bit_string(row["v"])
        if gu != length or gv != length:
            raise InputError(f"edge endpoints must be {length}-bit labels")
        color = row["color"]
        if not isinstance(color, int):
            raise InputError(f"edge color must be an integer, got {color!r}")
        if u >= v:
            raise InputError(f"edge endpoints must satisfy u < v, got {row}")
        e = Edge(u, v, color)
        edges.append(e)
        d = row.get("dashed")
        if d is not None:
            if not isinstance(d, bool):
                raise InputError(f"dashed flag must be boolean, got {d!r}")
            dashing[e] = -1 if d else 1
        dash_seen.add(d is not None)
    if tuple(edges) != expect.edges:
        raise InputError("edge list does not match the canonical quotient order")
    if len(dash_seen) > 1:
        raise InputError("dashed flags must be given for all edges or none")
    has_dashing = dash_seen == {True}

    return Adinkra(
        n,
        code,
        expect.nodes,
        expect.edges,
        dashing if has_dashing else None,
        heights if has_heights else None,
    )
