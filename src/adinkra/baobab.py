"""Baobabs: the minimal determining subgraphs of an adinkra.

A baobab holds one dashing bit per spanning-tree edge plus one per
fundamental cycle matched to a code generator, and a pinned arrow set
that determines every edge direction.  Reconstruction replays the
four-cycle constraints as explicit gates — NDXOR for dashing parity,
DXOR for directions — and records each inference in a trace that can be
re-run independently.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .codes import AffineCode, bit_string, color_bit, parse_bit_string
from .errors import (
    ContradictionError,
    InputError,
    InsufficientPinningError,
    ReplayError,
    UnderDeterminedError,
)
from .graph import (
    Adinkra,
    Edge,
    Plaquette,
    json_object_rows,
    load_json_object,
    normalize_heights,
    plaquette_masks,
    plaquettes,
    verify_heights,
    verify_odd_dashing,
)
from .quaternion import (  # noqa: F401  (part of the public surface here)
    QuaternionCompletion,
    quaternion_baobab_completions,
)

# ---------- gates ----------


def _check_bit(value, what: str) -> int:
    if value not in (0, 1):
        raise InputError(f"{what} must be 0 or 1, got {value!r}")
    return value


def ndxor(x: int, y: int, z: int) -> int:
    """Negated XOR: the fourth bit completing odd overall parity."""
    for v in (x, y, z):
        _check_bit(v, "ndxor input")
    return 1 ^ x ^ y ^ z


def dxor(x: int, y: int, z: int) -> int:
    """The fourth direction bit: exactly two of the four may point
    against the traversal, so all-equal known bits are contradictory."""
    for v in (x, y, z):
        _check_bit(v, "dxor input")
    if x == y == z:
        raise ContradictionError(
            f"dxor({x}, {y}, {z}): no fourth bit yields exactly two ones"
        )
    return x ^ y ^ z


# ---------- degrees of freedom ----------


def dashing_dof(n: int, k: int) -> int:
    """Independent dashing bits: 2**n - 1 tree bits plus k cycle bits."""
    if n < 1 or k < 0:
        raise InputError(f"invalid family size n={n}, k={k}")
    return (1 << n) + k - 1


def directed_dof_bounds(n: int) -> tuple[int, int]:
    """(lower, upper) bounds on the pinned arrows needed to fix all
    directions: n for a fully extended cube, 2**(n-1) for a valise."""
    if n < 1:
        raise InputError(f"invalid n={n}")
    return (n, 1 << (n - 1))


# ---------- gate traces ----------


@dataclass(frozen=True)
class GateStep:
    """One inference: `inputs` were known, `output` was forced.

    For NDXOR steps the bits are dashing bits of the edges.  For DXOR
    steps the bits are trail bits — 0 when the arrow agrees with the
    plaquette traversal recorded in `corners` — and two equal inputs
    force the complementary output (the four trail bits must hold
    exactly two ones).
    """

    gate: str
    colors: tuple[int, int]
    base: int
    corners: tuple[int, int, int, int]
    inputs: tuple[tuple[Edge, int], ...]
    output: tuple[Edge, int]


@dataclass(frozen=True)
class GateTrace:
    """Ordered record of every propagation inference."""

    length: int
    steps: tuple[GateStep, ...]

    def to_jsonl(self) -> str:
        rows = []
        for s in self.steps:
            rows.append(json.dumps({
                "gate": s.gate,
                "colors": list(s.colors),
                "base": bit_string(s.base, self.length),
                "corners": [bit_string(c, self.length) for c in s.corners],
                "inputs": [
                    {"u": bit_string(e.u, self.length),
                     "v": bit_string(e.v, self.length),
                     "color": e.color, "bit": b}
                    for e, b in s.inputs
                ],
                "output": {
                    "u": bit_string(s.output[0].u, self.length),
                    "v": bit_string(s.output[0].v, self.length),
                    "color": s.output[0].color, "bit": s.output[1],
                },
            }))
        return "\n".join(rows) + ("\n" if rows else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "GateTrace":
        steps = []
        length = 0
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"trace line {lineno}: invalid JSON ({exc})")
            try:
                base, length = parse_bit_string(row["base"])
                corners = tuple(parse_bit_string(c)[0] for c in row["corners"])
                inputs = tuple(
                    (Edge(parse_bit_string(i["u"])[0],
                          parse_bit_string(i["v"])[0], i["color"]), i["bit"])
                    for i in row["inputs"]
                )
                out = row["output"]
                output = (Edge(parse_bit_string(out["u"])[0],
                               parse_bit_string(out["v"])[0], out["color"]),
                          out["bit"])
                steps.append(GateStep(
                    row["gate"], tuple(row["colors"]), base, corners,
                    inputs, output,
                ))
            except (KeyError, TypeError) as exc:
                raise InputError(f"trace line {lineno}: missing field {exc}")
        return cls(length, tuple(steps))

    # -- replay --

    def replay_dashing(self, seeds: Mapping[Edge, int]) -> dict[Edge, int]:
        """Re-run NDXOR steps from seed bits; every recorded input must
        already be known and every output must recompute identically."""
        bits = {e: _check_bit(b, f"seed for {e}") for e, b in seeds.items()}
        for num, s in enumerate(self.steps, 1):
            if s.gate != "NDXOR":
                raise ReplayError(f"step {num}: expected NDXOR, got {s.gate}")
            vals = []
            for e, b in s.inputs:
                if e not in bits:
                    raise ReplayError(f"step {num}: input {e} not yet known")
                if bits[e] != b:
                    raise ReplayError(
                        f"step {num}: input {e} is {bits[e]}, trace says {b}"
                    )
                vals.append(b)
            if len(vals) != 3:
                raise ReplayError(f"step {num}: NDXOR needs 3 inputs")
            want = ndxor(*vals)
            e, b = s.output
            if want != b:
                raise ReplayError(
                    f"step {num}: recomputed {want} but trace wrote {b}"
                )
            if e in bits and bits[e] != b:
                raise ReplayError(f"step {num}: output {e} already {bits[e]}")
            bits[e] = b
        return bits

    def replay_directions(self, seeds: Mapping[Edge, int]) -> dict[Edge, int]:
        """Re-run DXOR steps from seed arrows (edge -> head node)."""
        heads = dict(seeds)
        for num, s in enumerate(self.steps, 1):
            if s.gate != "DXOR":
                raise ReplayError(f"step {num}: expected DXOR, got {s.gate}")
            trail = _trail_from_corners(s.corners, s.colors)
            by_edge = {e: (frm, to) for frm, to, e in trail}
            vals = []
            for e, b in s.inputs:
                if e not in by_edge:
                    raise ReplayError(f"step {num}: input {e} not on the cycle")
                frm, to = by_edge[e]
                if e not in heads:
                    raise ReplayError(f"step {num}: input {e} not yet known")
                got = 0 if heads[e] == to else 1
                if got != b:
                    raise ReplayError(
                        f"step {num}: input {e} reads {got}, trace says {b}"
                    )
                vals.append(b)
            if len(vals) == 3:
                want = dxor(*vals)
            elif len(vals) == 2:
                if vals[0] != vals[1]:
                    raise ReplayError(
                        f"step {num}: two-input DXOR needs equal inputs"
                    )
                want = 1 - vals[0]
            else:
                raise ReplayError(f"step {num}: DXOR needs 2 or 3 inputs")
            e, b = s.output
            if want != b:
                raise ReplayError(
                    f"step {num}: recomputed {want} but trace wrote {b}"
                )
            if e not in by_edge:
                raise ReplayError(f"step {num}: output {e} not on the cycle")
            frm, to = by_edge[e]
            head = to if b == 0 else frm
            if e in heads and heads[e] != head:
                raise ReplayError(f"step {num}: output {e} already oriented")
            heads[e] = head
        return heads


def _trail_from_corners(corners, colors):
    ci, cj = colors
    out = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        color = ci if i % 2 == 0 else cj
        out.append((a, b, Edge(min(a, b), max(a, b), color)))
    return tuple(out)


# ---------- constraint propagation ----------


def propagate_dashing(
    skeleton: Adinkra,
    known: Mapping[Edge, int],
    _order: tuple[Plaquette, ...] | None = None,
) -> tuple[dict[Edge, int], GateTrace]:
    """Extend known dashing bits over all edges via NDXOR inference.

    Scans plaquettes in canonical order, restarting after every
    inference, so equal inputs always give the identical trace; the
    private `_order` hook exists so tests can confirm the fixpoint is
    order-independent.
    """
    plaqs = plaquettes(skeleton) if _order is None else _order
    edge_set = set(skeleton.edges)
    bits = {}
    for e, b in known.items():
        if e not in edge_set:
            raise InputError(f"unknown edge {e}")
        bits[e] = _check_bit(b, f"bit for {e}")
    steps = []
    progress = True
    while progress:
        progress = False
        for p in plaqs:
            vals = [bits.get(e) for e in p.edges]
            unknown = [i for i, v in enumerate(vals) if v is None]
            if not unknown:
                if vals[0] ^ vals[1] ^ vals[2] ^ vals[3] != 1:
                    raise ContradictionError(
                        f"plaquette colors {p.colors} at "
                        f"{bit_string(p.base, skeleton.length)} has even "
                        "dashing parity",
                        plaquette=p,
                    )
                continue
            if len(unknown) == 1:
                i = unknown[0]
                inputs = tuple(
                    (p.edges[j], vals[j]) for j in range(4) if j != i
                )
                out_bit = ndxor(*(b for _, b in inputs))
                bits[p.edges[i]] = out_bit
                steps.append(GateStep(
                    "NDXOR", p.colors, p.base, p.corners, inputs,
                    (p.edges[i], out_bit),
                ))
                progress = True
                break
    trace = GateTrace(skeleton.length, tuple(steps))
    return bits, trace


def propagate_directions(
    skeleton: Adinkra,
    pinned: Mapping[Edge, int],
    _order: tuple[Plaquette, ...] | None = None,
) -> tuple[dict[Edge, int], GateTrace]:
    """Extend pinned arrows (edge -> head node) to all edges.

    Around every plaquette exactly two arrows run against the
    traversal; three known trail bits force the fourth (DXOR), and two
    equal known bits force both remaining bits to the complement.
    """
    plaqs = plaquettes(skeleton) if _order is None else _order
    edge_set = set(skeleton.edges)
    heads = {}
    for e, h in pinned.items():
        if e not in edge_set:
            raise InputError(f"unknown edge {e}")
        if h not in (e.u, e.v):
            raise InputError(f"head {h} is not an endpoint of {e}")
        heads[e] = h
    steps = []
    progress = True
    while progress:
        progress = False
        for p in plaqs:
            trail = p.trail()
            tvals = []
            for frm, to, e in trail:
                h = heads.get(e)
                tvals.append(None if h is None else (0 if h == to else 1))
            unknown = [i for i, v in enumerate(tvals) if v is None]
            ones = sum(v for v in tvals if v)
            if not unknown:
                if ones != 2:
                    raise ContradictionError(
                        f"plaquette colors {p.colors} at "
                        f"{bit_string(p.base, skeleton.length)} has {ones} "
                        "counter-traversal arrows, needs exactly 2",
                        plaquette=p,
                    )
                continue
            solutions = [
                c for c in product((0, 1), repeat=len(unknown))
                if ones + sum(c) == 2
            ]
            if not solutions:
                raise ContradictionError(
                    f"plaquette colors {p.colors} at "
                    f"{bit_string(p.base, skeleton.length)} cannot reach "
                    "exactly 2 counter-traversal arrows",
                    plaquette=p,
                )
            inputs = tuple(
                (trail[i][2], tvals[i]) for i in range(4)
                if tvals[i] is not None
            )
            fired = False
            for pos, i in enumerate(unknown):
                seen = {sol[pos] for sol in solutions}
                if len(seen) > 1:
                    continue
                bit = seen.pop()
                frm, to, e = trail[i]
                heads[e] = to if bit == 0 else frm
                steps.append(GateStep(
                    "DXOR", p.colors, p.base, p.corners, inputs, (e, bit),
                ))
                fired = True
            if fired:
                progress = True
                break
    trace = GateTrace(skeleton.length, tuple(steps))
    return heads, trace


def heights_from_directions(
    skeleton: Adinkra, heads: Mapping[Edge, int]
) -> dict[int, int]:
    """Integrate arrows into heights (head = tail + 1), minimum at 0."""
    for e in skeleton.edges:
        if e not in heads:
            raise InputError(f"direction missing for edge {e}")
    incident: dict[int, list[Edge]] = {x: [] for x in skeleton.nodes}
    for e in skeleton.edges:
        incident[e.u].append(e)
        incident[e.v].append(e)
    heights = {skeleton.nodes[0]: 0}
    queue = deque([skeleton.nodes[0]])
    while queue:
        x = queue.popleft()
        for e in incident[x]:
            other = e.v if e.u == x else e.u
            h = heights[x] + (1 if heads[e] == other else -1)
            if other in heights:
                if heights[other] != h:
                    raise ContradictionError(
                        f"arrows around {e} close a loop with nonzero rise"
                    )
            else:
                heights[other] = h
                queue.append(other)
    return normalize_heights(heights)


# ---------- baobab structure ----------


@dataclass(frozen=True)
class Baobab:
    """Spanning tree plus per-generator cycle edges, their dashing bits,
    and the pinned arrows that fix all directions."""

    n: int
    code_generators: tuple[str, ...]
    length: int
    tree_edges: tuple[Edge, ...]
    cycle_edges: tuple[Edge, ...]
    odd_color_sets: tuple[frozenset[int], ...]
    bits: Mapping[Edge, int]
    pinned: Mapping[Edge, int]

    def slot_edges(self) -> tuple[Edge, ...]:
        """Tree and cycle edges in canonical order — the bit slots."""
        return tuple(sorted(self.tree_edges + self.cycle_edges,
                            key=lambda e: (e.u, e.color)))

    def bitstring(self) -> str:
        return "".join(str(self.bits[e]) for e in self.slot_edges())

    def to_json(self) -> str:
        def edge_row(e: Edge):
            return {"u": bit_string(e.u, self.length),
                    "v": bit_string(e.v, self.length), "color": e.color}

        obj = {
            "n": self.n,
            "code_generators": list(self.code_generators),
            "tree_edges": [edge_row(e) for e in self.tree_edges],
            "cycle_edges": [
                dict(edge_row(e), odd_colors=sorted(colors))
                for e, colors in zip(self.cycle_edges, self.odd_color_sets)
            ],
            "bits": self.bitstring(),
            "pinned": [
                dict(edge_row(e), toward=bit_string(self.pinned[e], self.length))
                for e in sorted(self.pinned, key=lambda e: (e.u, e.color))
            ],
        }
        return json.dumps(obj, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Baobab":
        obj = load_json_object(text, ("n", "code_generators", "tree_edges",
                                      "cycle_edges", "bits", "pinned"))
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"invalid n: {n!r}")
        gens = obj["code_generators"]
        if not isinstance(gens, list):
            raise InputError(f"code_generators must be a list, got {gens!r}")
        for g in gens:
            parse_bit_string(g)
        gens = tuple(gens)
        length = None

        def parse_edge(row) -> Edge:
            nonlocal length
            u, lu = parse_bit_string(row["u"])
            v, lv = parse_bit_string(row["v"])
            if length is None:
                length = lu
            if lu != length or lv != length:
                raise InputError("inconsistent label lengths in baobab")
            if u >= v:
                raise InputError(f"edge endpoints must satisfy u < v: {row}")
            color = row["color"]
            if not isinstance(color, int):
                raise InputError(
                    f"edge color must be an integer, got {color!r}"
                )
            return Edge(u, v, color)

        edge_fields = ("u", "v", "color")
        tree = tuple(
            parse_edge(r)
            for r in json_object_rows(obj, "tree_edges", edge_fields)
        )
        cycles = []
        odd_sets = []
        cycle_rows = json_object_rows(
            obj, "cycle_edges", edge_fields + ("odd_colors",)
        )
        for r in cycle_rows:
            cycles.append(parse_edge(r))
            colors = r["odd_colors"]
            if not isinstance(colors, list) or not all(
                isinstance(c, int) for c in colors
            ):
                raise InputError(f"odd_colors must list integers: {colors!r}")
            odd_sets.append(frozenset(colors))
        if length is None:
            raise InputError("baobab has no edges")
        bits_text = obj["bits"]
        slots = tuple(sorted(tree + tuple(cycles),
                             key=lambda e: (e.u, e.color)))
        if (not isinstance(bits_text, str)
                or len(bits_text) != len(slots)
                or any(c not in "01" for c in bits_text)):
            raise InputError(
                f"bits must be a {len(slots)}-character bitstring"
            )
        bits = dict(zip(slots, (int(c) for c in bits_text)))
        pinned = {}
        for r in json_object_rows(obj, "pinned", edge_fields + ("toward",)):
            e = parse_edge(r)
            toward, lt = parse_bit_string(r["toward"])
            if lt != length or toward not in (e.u, e.v):
                raise InputError(f"pinned arrow {r} has a bad head")
            pinned[e] = toward
        return cls(n, gens, length, tree, tuple(cycles),
                   tuple(odd_sets), bits, pinned)


def cycle_color_set(edge: Edge, length: int) -> frozenset[int]:
    """Colors appearing an odd number of times on the fundamental cycle
    of a non-tree edge (tree path between endpoints plus the edge).

    With the canonical tree, the tree path from x to the root crosses
    exactly the colors of x's set bits, so the cycle's odd-color word
    is u XOR v XOR e_color — the codeword the edge wraps around.
    """
    word = edge.u ^ edge.v ^ color_bit(edge.color, length)
    return frozenset(length - p for p in range(length) if word >> p & 1)


def skeleton_tree(skeleton: Adinkra) -> tuple[Edge, ...]:
    """Canonical spanning tree: each node links to the representative
    with its top bit cleared (which is again a representative)."""
    edges = []
    length = skeleton.length
    node_set = set(skeleton.nodes)
    for x in skeleton.nodes:
        if x == 0:
            continue
        top = x.bit_length() - 1
        parent = x ^ (1 << top)
        color = length - top
        if parent not in node_set:
            raise InputError(
                f"node {bit_string(x, length)} has no in-tree parent; "
                "representatives are not closed under clearing the top bit"
            )
        edges.append(Edge(parent, x, color))
    edges.sort(key=lambda e: (e.u, e.color))
    return tuple(edges)


def skeleton_baobab_edges(skeleton: Adinkra):
    """(tree_edges, cycle_edges, odd_color_sets) for a skeleton."""
    tree = skeleton_tree(skeleton)
    tree_set = set(tree)
    non_tree = [e for e in skeleton.edges if e not in tree_set]
    length = skeleton.length
    gens = skeleton.code.generators
    cycles = []
    odd_sets = []
    for g in gens:
        want = frozenset(
            length - p for p in range(length) if g >> p & 1
        )
        for e in non_tree:
            word = e.u ^ e.v ^ color_bit(e.color, length)
            if word == g:
                cycles.append(e)
                odd_sets.append(want)
                break
        else:
            raise UnderDeterminedError(
                f"no fundamental cycle matches generator "
                f"{bit_string(g, length)}"
            )
    return tree, tuple(cycles), tuple(odd_sets)


# ---------- extraction ----------


def _tree_structure(skeleton: Adinkra, tree: tuple[Edge, ...]):
    parent: dict[int, tuple[int, Edge] | None] = {skeleton.nodes[0]: None}
    children: dict[int, list[int]] = {x: [] for x in skeleton.nodes}
    by_child = {}
    for e in tree:
        by_child[e.v] = e  # tree edges always run parent -> larger child
    for x in skeleton.nodes:
        if x == 0:
            continue
        e = by_child[x]
        parent[x] = (e.u, e)
        children[e.u].append(x)
    depth = {}

    def _depth(x: int) -> int:
        if x not in depth:
            depth[x] = 0 if parent[x] is None else 1 + _depth(parent[x][0])
        return depth[x]

    for x in skeleton.nodes:
        _depth(x)
    return parent, children, depth


def _extremal_nodes(adinkra: Adinkra):
    heights = adinkra.heights
    nbrs: dict[int, list[int]] = {x: [] for x in adinkra.nodes}
    for e in adinkra.edges:
        nbrs[e.u].append(e.v)
        nbrs[e.v].append(e.u)
    sources, sinks = [], []
    for x in adinkra.nodes:
        hs = [heights[y] for y in nbrs[x]]
        if all(h > heights[x] for h in hs):
            sources.append(x)
        elif all(h < heights[x] for h in hs):
            sinks.append(x)
    return sources, sinks


def _tree_path_edges(a: int, b: int, parent) -> list[Edge]:
    seen = {}
    x = a
    while True:
        seen[x] = None
        if parent[x] is None:
            break
        x = parent[x][0]
    trail_b = []
    x = b
    while x not in seen:
        trail_b.append(parent[x][1])
        x = parent[x][0]
    lca = x
    out = []
    x = a
    while x != lca:
        out.append(parent[x][1])
        x = parent[x][0]
    return out + trail_b


def choose_pinned_arrows(adinkra: Adinkra) -> dict[Edge, int]:
    """Deterministic pinned-arrow selection along the spanning tree.

    Extremal nodes (sources and sinks) must each touch a pinned edge.
    Adjacent extremal pairs are matched leaf-up along tree edges; the
    leftovers are paired source-to-sink and the whole tree path between
    them is pinned; any stragglers pin their smallest tree edge.
    """
    if adinkra.heights is None:
        raise InputError("pinning needs heights")
    tree = skeleton_tree(adinkra)
    parent, _children, depth = _tree_structure(adinkra, tree)
    sources, sinks = _extremal_nodes(adinkra)
    extremal = set(sources) | set(sinks)
    heights = adinkra.heights

    pinned: dict[Edge, int] = {}

    def pin(e: Edge) -> None:
        pinned[e] = e.u if heights[e.u] > heights[e.v] else e.v

    covered: set[int] = set()
    order = sorted(adinkra.nodes, key=lambda x: (-depth[x], x))
    for x in order:
        if x not in extremal or x in covered or parent[x] is None:
            continue
        p, e = parent[x]
        if p in extremal and p not in covered:
            pin(e)
            covered.add(x)
            covered.add(p)

    left_sources = [x for x in sources if x not in covered]
    left_sinks = [x for x in sinks if x not in covered]
    for a, b in zip(left_sources, left_sinks):
        for e in _tree_path_edges(a, b, parent):
            pin(e)
        covered.add(a)
        covered.add(b)

    for x in extremal - covered:
        candidates = [e for e in tree if x in (e.u, e.v)]
        pin(min(candidates, key=lambda e: (e.u, e.color)))
        covered.add(x)

    return pinned


def extract_baobab(adinkra: Adinkra) -> Baobab:
    """Reduce a valid adinkra to its determining bits and arrows.

    The result is verified on the spot: dashing bits must propagate
    back to the full dashing and pinned arrows to the full height
    assignment, otherwise the extraction refuses loudly.
    """
    if adinkra.dashing is None or adinkra.heights is None:
        raise InputError("extraction needs both dashing and heights")
    report = verify_odd_dashing(adinkra)
    if not report:
        raise InputError(f"invalid adinkra: {report.summary()}")
    report = verify_heights(adinkra)
    if not report:
        raise InputError(f"invalid adinkra: {report.summary()}")

    tree, cycles, odd_sets = skeleton_baobab_edges(adinkra)
    bits = {e: (1 if adinkra.dashing[e] == 1 else 0)
            for e in tree + cycles}

    skeleton = adinkra.skeleton()
    full_bits, _trace = propagate_dashing(skeleton, bits)
    missing = [e for e in adinkra.edges if e not in full_bits]
    if missing:
        raise UnderDeterminedError(
            f"baobab bits leave {len(missing)} edge(s) undetermined",
            unresolved=missing,
        )
    for e in adinkra.edges:
        want = 1 if adinkra.dashing[e] == 1 else 0
        if full_bits[e] != want:
            raise ContradictionError(
                f"propagated dashing disagrees with the input at {e}"
            )

    pinned = choose_pinned_arrows(adinkra)
    heads, _dtrace = propagate_directions(skeleton, pinned)
    unresolved = [e for e in adinkra.edges if e not in heads]
    if unresolved:
        raise InsufficientPinningError(
            f"pinned arrows leave {len(unresolved)} edge direction(s) "
            "undetermined",
            unresolved=unresolved,
        )
    heights = adinkra.heights
    for e in adinkra.edges:
        want = e.u if heights[e.u] > heights[e.v] else e.v
        if heads[e] != want:
            raise ContradictionError(
                f"propagated direction disagrees with the heights at {e}"
            )

    return Baobab(
        adinkra.n,
        adinkra.code.generator_strings(),
        adinkra.length,
        tree,
        cycles,
        odd_sets,
        bits,
        pinned,
    )


# ---------- reconstruction ----------


def _validate_baobab_fit(skeleton: Adinkra, baobab: Baobab) -> None:
    if baobab.n != skeleton.n or baobab.length != skeleton.length:
        raise InputError(
            f"baobab is for n={baobab.n}, L={baobab.length}; skeleton has "
            f"n={skeleton.n}, L={skeleton.length}"
        )
    if tuple(baobab.code_generators) != skeleton.code.generator_strings():
        raise InputError("baobab code generators do not match the skeleton")
    edge_set = set(skeleton.edges)
    for e in baobab.slot_edges():
        if e not in edge_set:
            raise InputError(f"baobab edge {e} is not in the skeleton")
    tree, cycles, odd_sets = skeleton_baobab_edges(skeleton)
    if baobab.tree_edges != tree or baobab.cycle_edges != cycles:
        raise InputError("baobab edges are not the canonical tree/cycle set")
    if baobab.odd_color_sets != odd_sets:
        raise InputError("baobab cycle color sets do not match the skeleton")


def reconstruct_dashing(
    skeleton: Adinkra, source
) -> tuple[dict[Edge, int], GateTrace]:
    """Dashing signs for every edge from baobab bits.

    `source` is a Baobab or a mapping edge -> bit (1 plain, 0 dashed).
    Returns signs (+1/-1 per edge) and the gate trace that derived
    them.
    """
    if isinstance(source, Baobab):
        _validate_baobab_fit(skeleton, source)
        known = dict(source.bits)
    else:
        known = dict(source)
    bits, trace = propagate_dashing(skeleton, known)
    missing = [e for e in skeleton.edges if e not in bits]
    if missing:
        raise UnderDeterminedError(
            f"{len(missing)} edge(s) undetermined by the given bits",
            unresolved=missing,
        )
    signs = {e: (1 if bits[e] else -1) for e in skeleton.edges}
    return signs, trace


def reconstruct_directions(
    skeleton: Adinkra, pinned: Mapping[Edge, int]
) -> tuple[dict[int, int], dict[Edge, int], GateTrace]:
    """Heights and arrows for every edge from pinned arrows.

    Returns (heights with minimum 0, edge -> head node, trace); raises
    InsufficientPinningError when the pins do not determine everything.
    """
    heads, trace = propagate_directions(skeleton, pinned)
    unresolved = [e for e in skeleton.edges if e not in heads]
    if unresolved:
        raise InsufficientPinningError(
            f"{len(unresolved)} edge direction(s) undetermined by the pins",
            unresolved=unresolved,
        )
    heights = heights_from_directions(skeleton, heads)
    return heights, heads, trace


def reconstruct_adinkra(
    skeleton: Adinkra, baobab: Baobab
) -> tuple[Adinkra, GateTrace, GateTrace]:
    """Full adinkra (dashing + heights) from a baobab."""
    signs, dash_trace = reconstruct_dashing(skeleton, baobab)
    heights, _heads, dir_trace = reconstruct_directions(
        skeleton, baobab.pinned
    )
    out = Adinkra(skeleton.n, skeleton.code, skeleton.nodes, skeleton.edges,
                  signs, heights)
    return out, dash_trace, dir_trace


# ---------- counting ----------


def count_valid_dashings(skeleton: Adinkra) -> int:
    """Number of dashings with odd parity on every plaquette: 2**dim of
    the plaquette checks' affine code, found by row reduction."""
    code = AffineCode.from_checks(
        plaquette_masks(skeleton), len(skeleton.edges)
    )
    return 0 if code is None else code.count()
