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
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, compress
from typing import Mapping, NamedTuple

from .codes import (bit_string, check_bit, color_bit, parse_bit_string,
                    read_bits)
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
    _collector_paused,
    _graph_table,
    _moved,
    _plaquette_ids,
    _rank_planes,
    checked_heights,
    chromotopology_code,
    json_edge,
    json_header,
    json_int,
    json_object_rows,
    json_scalar,
    load_json_object,
    normalize_heights,
    plaquettes,
    verify_heights,
    verify_odd_dashing,
)


# ---------- gates ----------


def ndxor(x: int, y: int, z: int) -> int:
    """Negated XOR: the fourth bit completing odd overall parity."""
    for v in (x, y, z):
        check_bit(v, "ndxor input")
    return 1 ^ x ^ y ^ z


def dxor(x: int, y: int, z: int) -> int:
    """The fourth direction bit: exactly two of the four may point
    against the traversal, so all-equal known bits are contradictory."""
    for v in (x, y, z):
        check_bit(v, "dxor input")
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


class GateStep(NamedTuple):
    """One inference: `inputs` were known, `output` was forced.

    For NDXOR steps the bits are dashing bits of the edges.  For DXOR
    steps the bits are trail bits — 0 when the arrow agrees with the
    plaquette traversal recorded in `corners` — and two equal inputs
    force the complementary output (the four trail bits must hold
    exactly two ones).  Like `Plaquette`, a step equals the plain tuple
    of its fields.
    """

    gate: str
    colors: tuple[int, int]
    base: int
    corners: tuple[int, int, int, int]
    inputs: tuple[tuple[Edge, int], ...]
    output: tuple[Edge, int]


@dataclass(frozen=True)
class GateTrace:
    """Ordered record of every propagation inference.

    A trace that propagation returns holds only the values it computed:
    the fired plaquettes in order and, per edge, the firing that wrote
    it.  It builds its `steps` in one pass on first read (`_gate_steps`)
    and until then keeps the skeleton's plaquette table alive: its
    plaquettes and their id quadruples.  Equality, hashing, `repr`,
    pickling and copies read `steps`, so such a trace behaves as
    `GateTrace(length, steps)`, and it is as frozen.
    """

    length: int
    steps: tuple[GateStep, ...]

    def __getattr__(self, name):
        # reached only for attributes the instance lacks, such as the
        # `steps` of a trace from propagation before its first read
        firings = self.__dict__.get("_firings")
        if name != "steps" or firings is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        steps = _gate_steps(*firings)
        # frozen: write the built field straight into the instance
        self.__dict__["steps"] = steps
        self.__dict__.pop("_firings", None)
        return steps

    def __reduce__(self):
        # pickled and copied as `GateTrace(length, steps)`, firings dropped
        return GateTrace, (self.length, self.steps)

    def to_jsonl(self) -> str:
        """One step per line, as `json.dumps` writes the step's object,
        built row by row without the encoder as `graph.to_json` is."""
        label = _Labels(self.length)
        rows = []
        for s in self.steps:
            colors = ", ".join(map(json_scalar, s.colors))
            base = label[s.base]
            corners = '", "'.join([label[c] for c in s.corners])
            edges = [f'{{"u": "{label[e.u]}", "v": "{label[e.v]}", '
                     f'"color": {json_scalar(e.color)}, '
                     f'"bit": {json_scalar(b)}}}'
                     for e, b in (*s.inputs, s.output)]
            inputs = ", ".join(edges[:-1])
            rows.append(
                f'{{"gate": {json.dumps(s.gate)}, "colors": [{colors}], '
                f'"base": "{base}", "corners": ["{corners}"], '
                f'"inputs": [{inputs}], "output": {edges[-1]}}}')
        return "\n".join(rows) + ("\n" if rows else "")

    @classmethod
    @_collector_paused
    def from_jsonl(cls, text: str) -> "GateTrace":
        """Parse the rows `to_jsonl` writes.  The first row's base sets
        the label length, and every label of every row must have it.

        Runs with the cyclic collector paused for the whole process (see
        `graph._collector_paused`)."""
        steps = []
        length = None
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise InputError("not an object")
                base, got = parse_bit_string(row["base"])
                if length is None:
                    length = got
                elif got != length:
                    raise InputError("inconsistent label lengths in trace")
                steps.append(_parse_step(row, base, length))
            except json.JSONDecodeError as exc:
                raise InputError(f"trace line {lineno}: invalid JSON ({exc})")
            except KeyError as exc:
                raise InputError(f"trace line {lineno}: missing field {exc}")
            except InputError as exc:
                raise InputError(f"trace line {lineno}: {exc}") from None
        return cls(length or 0, tuple(steps))

    # -- replay --

    def replay_dashing(self, seeds: Mapping[Edge, int]) -> dict[Edge, int]:
        """Re-run NDXOR steps from seed bits; every recorded input must
        already be known and every output must recompute identically.

        A step passes on dict lookups and one XOR; one that does not, or
        is malformed, gets the per-step checks, which name its fault."""
        bits = {e: check_bit(b, "seed", e) for e, b in seeds.items()}
        get = bits.get
        for num, s in enumerate(self.steps, 1):
            if s.gate == "NDXOR":
                try:
                    (e1, b1), (e2, b2), (e3, b3) = s.inputs
                    e, b = s.output
                    # int input bits only: the NDXOR gate refuses a bool
                    if (int is type(b1) is type(b2) is type(b3)
                            and get(e1) == b1 and get(e2) == b2
                            and get(e3) == b3 and b == 1 ^ b1 ^ b2 ^ b3
                            and get(e, b) == b):
                        bits[e] = b
                        continue
                except (TypeError, ValueError):  # malformed: checks below
                    pass
            _replay_ndxor(num, s, bits)
        return bits

    def replay_directions(self, seeds: Mapping[Edge, int]) -> dict[Edge, int]:
        """Re-run DXOR steps from seed arrows (edge -> head node).

        Each step's trail is read once (`_trail_map`), and again only
        when a step's corners or colors are other objects than the last
        one's; a step that does not pass on lookups in it, or is
        malformed, gets the per-step checks, which name its fault."""
        heads = {e: _check_head(e, h) for e, h in seeds.items()}
        get = heads.get
        corners = colors = trail = None
        for num, s in enumerate(self.steps, 1):
            if s.gate == "DXOR":
                try:
                    if s.corners is not corners or s.colors is not colors:
                        corners, colors = s.corners, s.colors
                        trail = _trail_map(corners, colors)
                    # an input reads 1 where its head is not the end its
                    # trail steps onto; an edge off the trail or not yet
                    # known raises KeyError
                    inputs = s.inputs
                    if len(inputs) == 3:
                        (i1, b1), (i2, b2), (i3, b3) = inputs
                        # int bits only: the DXOR gate refuses a bool
                        forced = (int is type(b1) is type(b2) is type(b3)
                                  and not b1 == b2 == b3
                                  and (heads[i3] != trail[i3][1]) == b3)
                        want = b1 ^ b2 ^ b3
                    else:
                        (i1, b1), (i2, b2) = inputs
                        forced, want = b1 == b2, 1 - b1
                    e, b = s.output
                    if (forced and b == want
                            and (heads[i1] != trail[i1][1]) == b1
                            and (heads[i2] != trail[i2][1]) == b2):
                        frm, to = trail[e]
                        head = to if b == 0 else frm
                        if get(e, head) == head:
                            heads[e] = head
                            continue
                except (KeyError, TypeError, ValueError):  # checks below
                    pass
            _replay_dxor(num, s, heads)
        return heads


def _replay_ndxor(num: int, s: GateStep, bits: dict) -> None:
    """Check NDXOR step `num` against `bits` and write its output, or
    raise the ReplayError that names the first fault."""
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


def _replay_dxor(num: int, s: GateStep, heads: dict) -> None:
    """Check DXOR step `num` against `heads` and write its output, or
    raise the ReplayError that names the first fault."""
    if s.gate != "DXOR":
        raise ReplayError(f"step {num}: expected DXOR, got {s.gate}")
    vals = []
    for e, b in s.inputs:
        ends = _trail_ends(e, s.corners, s.colors)
        if ends is None:
            raise ReplayError(f"step {num}: input {e} not on the cycle")
        if e not in heads:
            raise ReplayError(f"step {num}: input {e} not yet known")
        got = 0 if heads[e] == ends[1] else 1
        if got != b:
            raise ReplayError(
                f"step {num}: input {e} reads {got}, trace says {b}"
            )
        vals.append(b)
    if len(vals) == 3 and len(set(vals)) == 2:
        want = dxor(*vals)
    elif len(vals) == 2 and vals[0] == vals[1]:
        want = 1 - vals[0]
    else:
        raise ReplayError(f"step {num}: DXOR inputs {vals} force no bit")
    e, b = s.output
    if want != b:
        raise ReplayError(
            f"step {num}: recomputed {want} but trace wrote {b}"
        )
    ends = _trail_ends(e, s.corners, s.colors)
    if ends is None:
        raise ReplayError(f"step {num}: output {e} not on the cycle")
    head = ends[1] if b == 0 else ends[0]
    if e in heads and heads[e] != head:
        raise ReplayError(f"step {num}: output {e} already oriented")
    heads[e] = head


class _Labels(dict):
    """Node int -> its `bit_string`, rendered on first lookup."""

    def __init__(self, length: int):
        super().__init__()
        self.length = length

    def __missing__(self, x: int) -> str:
        text = self[x] = bit_string(x, self.length)
        return text


def _parse_step(row, base: int, length: int) -> GateStep:
    """One trace row as a GateStep, with every field replay reads checked
    and every label `length` bits long."""
    gate, colors = row["gate"], row["colors"]
    if gate not in ("NDXOR", "DXOR"):
        raise InputError(f"unknown gate {gate!r}")
    if (not isinstance(colors, list) or len(colors) != 2
            or not all(json_int(c) for c in colors)):
        raise InputError(f"colors must be two integers, got {colors!r}")
    corners = row["corners"]
    parsed = [parse_bit_string(c) for c in corners] if isinstance(
        corners, list) else []
    if len(parsed) != 4 or any(n != length for _, n in parsed):
        raise InputError(f"need four {length}-bit corners, got {corners!r}")

    def edge_bit(r, field: str) -> tuple[Edge, int]:
        if not isinstance(r, dict):
            raise InputError(f"{field} must be an edge object, got {r!r}")
        edge = json_edge(r, length)
        return edge, check_bit(r["bit"], "bit", edge)

    inputs = row["inputs"]
    if not isinstance(inputs, list):
        raise InputError(f"inputs must be a list, got {inputs!r}")
    return GateStep(
        gate, tuple(colors), base, tuple(c for c, _ in parsed),
        tuple(edge_bit(i, "inputs entry") for i in inputs),
        edge_bit(row["output"], "output"),
    )


def _trail_map(corners, colors) -> dict:
    """`_trail_ends` of every edge on the trail at once: (u, v, color)
    -> (from, to), the later step winning where two share an edge."""
    a, b, c, d = corners
    ci, cj = colors
    return {(a, b, ci) if a < b else (b, a, ci): (a, b),
            (b, c, cj) if b < c else (c, b, cj): (b, c),
            (c, d, ci) if c < d else (d, c, ci): (c, d),
            (d, a, cj) if d < a else (a, d, cj): (d, a)}


def _trail_ends(edge: Edge, corners, colors):
    """(from, to) of `edge` on the trail corners[0] -> ... -> corners[3]
    -> corners[0], whose steps alternate colors[0] and colors[1], or None
    when no step runs along it.  Should two steps share the edge, the
    last one counts."""
    u, v, color = edge
    for i in (3, 2, 1, 0):
        a, b = corners[i], corners[(i + 1) % 4]
        if colors[i % 2] == color and (
                (u == a and v == b) if a < b else (u == b and v == a)):
            return a, b
    return None


# ---------- constraint propagation ----------


def _contradiction(p: Plaquette, length: int, what: str) -> ContradictionError:
    return ContradictionError(
        f"plaquette colors {p.colors} at {bit_string(p.base, length)} {what}",
        plaquette=p,
    )


# A DXOR plaquette's counters form one state s = 5 * unknown + ones: its
# unknown edges, and its known edges whose trail bit is 1, an arrow
# whose head is not the end its trail steps onto.  _DXOR_READY[s] says
# whether the rule can force a bit or raise in state s: need = 2 - ones
# is not strictly between 0 and the unknown count, and the plaquette is
# not complete with need 0.
_DXOR_READY = tuple(not (0 < 2 - t < u) and (u, t) != (0, 2)
                    for u in range(5) for t in range(5))


def _dxor_rule(p: Plaquette, quad, vals: list, length: int, state: int):
    """(edge id, head) for every unknown arrow of a plaquette in the
    ready counter state `state`.  Edge k of the traversal runs from
    corners[k] to corners[k + 1]; its trail bit is 0 when the arrow
    points that way.  Ready means need = 2 - ones is 0 or the number of
    unknown arrows, or else the plaquette contradicts."""
    unknown, ones = divmod(state, 5)
    need = 2 - ones
    if not unknown:
        raise _contradiction(p, length, f"has {ones} counter-traversal "
                             "arrows, needs exactly 2")
    if not 0 <= need <= unknown:
        raise _contradiction(p, length, "cannot reach exactly 2 "
                             "counter-traversal arrows")
    c = p.corners
    return [(i, c[k] if need else c[(k + 1) % 4])
            for k, i in enumerate(quad) if vals[i] is None]


@_collector_paused
def _gate_steps(gate: str, table, order, vals, writes) -> tuple:
    """The GateSteps of a propagation, rebuilt from its values.

    Firing t fired plaquette `order[t]`.  For NDXOR, `writes[t]` is its
    (output id, the other three ids in quad order): each firing writes
    one bit from the three before it, and one (edge, bit) pair per edge
    id serves every step that reads or writes it.  For DXOR, `writes[i]`
    is the firing that wrote edge i (-1 for a given edge).  Every edge
    of a fired plaquette is known after it fires, so its inputs are the
    edges written before it and each other edge is the output of one
    step on those inputs, in traversal order.  DXOR bits are trail
    bits, 1 when the arrow does not point to the next corner: an
    output's is the one the two-ones rule forced, 0 when the inputs
    already held two ones, else 1.
    """
    plaqs = table.plaquettes
    steps = []
    add = steps.append
    new_step = tuple.__new__  # GateStep(...) without its keyword handling
    if gate == "NDXOR":
        pairs = list(zip(table.index, vals))  # index lists edges by id
        for j, (out, a, b, c) in zip(order, writes):
            base, colors, corners, _ = plaqs[j]
            add(new_step(GateStep, (gate, colors, base, corners,
                                    (pairs[a], pairs[b], pairs[c]),
                                    pairs[out])))
        return tuple(steps)
    quads = table.quads
    for t, j in enumerate(order):
        base, colors, c, edges = plaqs[j]
        inputs, outs = [], []
        for e, i, to in zip(edges, quads[j], (c[1], c[2], c[3], c[0])):
            (inputs if writes[i] < t else outs).append(
                (e, 0 if vals[i] == to else 1))
        inputs = tuple(inputs)
        for out in outs:
            add(new_step(GateStep, (gate, colors, base, c, inputs, out)))
    return tuple(steps)


def _ndxor_engine(table, vals: list, fresh, length: int):
    """NDXOR over the table's plaquettes from the known ids `fresh` to
    its fixpoint, writing dashing bits into `vals` (by edge id) in
    place.

    Each plaquette keeps its count of unknown edges and goes on a
    min-heap of canonical indices when the count reaches 1.  The least
    is popped.  With one unknown edge it writes the bit that makes its
    parity odd; with none, its last edge filled since the push, it
    raises if its parity is even and is skipped otherwise.  Only a
    plaquette with one unknown edge, or a complete one of even parity,
    can act, and every complete plaquette passed one unknown edge on the
    way, so each pop is the plaquette a scan from plaquette 0 would act
    on first: runs match a scan restarted after every inference.
    Returns the fired plaquettes in order and, per firing, its (output
    id, input ids)."""
    plaqs, quads, incident = table.plaquettes, table.quads, table.incidence
    unknown = [4] * len(quads)
    order, flat = [], []
    heap = []
    while True:
        for i in fresh:
            for onto in incident[i]:
                for j in onto:
                    u = unknown[j] = unknown[j] - 1
                    if u == 1:
                        heappush(heap, j)
        if not heap:
            return order, flat
        j = heappop(heap)
        q0, q1, q2, q3 = quad = quads[j]
        a, b, c, d = vals[q0], vals[q1], vals[q2], vals[q3]
        if not unknown[j]:
            if not a ^ b ^ c ^ d:
                raise _contradiction(plaqs[j], length,
                                     "has even dashing parity")
            fresh = ()
            continue
        # the unknown id, then the other three in quad order
        if a is None:
            step, vals[q0] = quad, 1 ^ b ^ c ^ d
        elif b is None:
            step, vals[q1] = (q1, q0, q2, q3), 1 ^ a ^ c ^ d
        elif c is None:
            step, vals[q2] = (q2, q0, q1, q3), 1 ^ a ^ b ^ d
        else:
            step, vals[q3] = (q3, q0, q1, q2), 1 ^ a ^ b ^ c
        order.append(j)
        flat.append(step)
        fresh = step[:1]  # the id just written


def _dxor_engine(table, vals: list, fresh: list, edges, length: int):
    """Fire `_dxor_rule` over the table's plaquettes from the known ids
    `fresh` to its fixpoint, writing the heads of the skeleton's `edges`
    into `vals` (by edge id) in place.

    Each plaquette keeps its counters (see `_DXOR_READY`) and goes on a
    min-heap of canonical indices when they become ready.  The least is
    popped, and skipped if an edge filled since left it idle; else the
    rule raises or returns the (edge id, head) pairs it forces.  A
    plaquette's verdict changes only when one of its edges becomes
    known, so each pop is the plaquette a scan from plaquette 0 would
    act on first: runs match a scan restarted after every inference,
    and the rule is never called in vain.  Returns the fired plaquettes
    in order, per edge id the firing that wrote it (-1 if none), and
    the written ids in write order."""
    plaqs, quads, incident = table.plaquettes, table.quads, table.incidence
    ready = _DXOR_READY
    state = [20] * len(plaqs)
    when = [-1] * len(vals)
    fired, written = [], []
    heap = []
    while True:
        for i in fresh:
            # an arrow is a one where its trail steps onto its tail
            head = vals[i]
            u, v, _ = edges[i]
            onto_u, onto_v = incident[i]
            move = (head != u) - 5
            for j in onto_u:
                old = state[j]
                state[j] = new = old + move
                if ready[new] and not ready[old]:
                    heappush(heap, j)
            move = (head != v) - 5
            for j in onto_v:
                old = state[j]
                state[j] = new = old + move
                if ready[new] and not ready[old]:
                    heappush(heap, j)
        while heap and not ready[state[heap[0]]]:
            heappop(heap)
        if not heap:
            return fired, when, written
        j = heappop(heap)
        start = len(written)
        t = len(fired)
        for i, value in _dxor_rule(plaqs[j], quads[j], vals, length,
                                   state[j]):
            vals[i] = value
            when[i] = t
            written.append(i)
        fired.append(j)
        fresh = written[start:]


def _propagate(skeleton: Adinkra, given: Mapping, check,
               directions: bool = False):
    """The engine of the gate from the given edges or, for dashing bits
    on exactly the baobab slots, the skeleton's NDXOR program, which
    fires as the engine would.  Returns the known dict and a trace that
    builds its steps from the firings when read."""
    table = _plaquette_ids(skeleton)
    index, edges = table.index, skeleton.edges
    vals = [None] * len(edges)
    known = {}
    fresh = []
    for e, value in given.items():
        i = index.get(e)
        if i is None:
            raise InputError(f"unknown edge {e}")
        known[e] = vals[i] = check(e, value)
        fresh.append(i)
    if directions:
        gate = "DXOR"
        order, writes, written = _dxor_engine(table, vals, fresh, edges,
                                              skeleton.length)
    else:
        gate = "NDXOR"
        program = _ndxor_program(skeleton, fresh)
        if program is not None:
            program.run(vals)
            order, writes = program.order, program.flat
        else:
            order, writes = _ndxor_engine(table, vals, fresh,
                                          skeleton.length)
        written = (out for out, _, _, _ in writes)
    for i in written:
        known[edges[i]] = vals[i]
    trace = object.__new__(GateTrace)  # steps built on first read
    trace.__dict__.update(length=skeleton.length,
                          _firings=(gate, table, order, vals, writes))
    return known, trace


# ---------- DXOR sweeps over node-rank planes ----------


def _swept_up(skeleton: Adinkra, pinned: Mapping) -> list[int] | None:
    """The up planes (`_dxor_closure`) over the node-rank planes
    (`graph._rank_planes`) that the arrows `pinned` (edge -> head,
    checked) close to, or None when the closure contradicts or leaves an
    edge unknown."""
    ranks = _rank_planes(skeleton)
    rank = dict(zip(skeleton.nodes, range(ranks.size)))
    up = [0] * len(ranks.deltas)
    for (u, v, color), head in pinned.items():
        up[color] |= 1 << rank[u if head == v else v]
    return _dxor_closure(ranks, up)


def _at_least_two_three(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """The bits set in at least two, and in at least three, of a..d."""
    ab, cd, a_b, c_d = a & b, c & d, a | b, c | d
    return ab | cd | a_b & c_d, ab & c_d | cd & a_b


def _dxor_closure(ranks, up: list[int]) -> list[int] | None:
    """Close known arrows under DXOR on node-rank planes, or None on a
    contradiction or when some edge stays unknown.

    Bit r of `up[c]` is set where the color-c edge at rank r is known to
    rise as it leaves r, and so bit r of its delta swap σ_c(up[c]) where
    it is known to fall.  Around plaquette (I, J) at base r the trail
    bits are 1 on σ_I(U_I), σ_I(σ_J(U_J)), σ_J(U_I), U_J and 0 on U_I,
    σ_I(U_J), σ_J(σ_I(U_I)), σ_J(U_J).  Two known ones force the unknown
    bits to 0 and two known zeros force them to 1; three of either
    contradicts.  Every rank is a base, so every edge of the pair shows
    as the first (color I) or the last (color J) trail edge of some
    base, and is forced there.  Each edge lies on one plaquette per
    color pair, and every base of that plaquette forces it the same
    way, so one sweep never forces an edge both ways; and a pair is
    swept again only once one of its planes has changed, until none
    changes.  A color's rises and falls sit side by side in one int,
    the zeros and the ones of a trail bit in one order or the other, so
    that one delta swap moves both and one count decides both.

    The rules are monotone, so any order reaches the engine's closure
    (Apt, "The essence of constraint propagation", TCS 221, 1999); all
    bases of a color pair are decided at once (bit-slicing)."""
    size = ranks.size
    low = (1 << size) - 1
    one, two = ranks.swaps(), ranks.swaps(2)
    # per color, rises then falls (zeros, ones of the first trail edge),
    # and falls then rises (those of the last)
    rf, fr = [], []
    for u, s in zip(up, one):
        d = _moved(u, s)
        rf.append(u | d << size)
        fr.append(d | u << size)
    pairs = list(combinations(range(1, len(up)), 2))
    seen = [None] * len(pairs)  # the planes each pair last swept
    moved = True
    while moved:
        moved = False
        for k, (i, j) in enumerate(pairs):
            ki, kj = rf[i], rf[j]
            if seen[k] == (ki, kj):
                continue
            # zeros then ones of the four trail bits at every base
            twos, threes = _at_least_two_three(
                ki, _moved(kj, two[i]), _moved(fr[i], two[j]), fr[j])
            if threes:
                return None
            zeros, ones = twos & low, twos >> size
            for c, known, rise, fall in ((i, ki, ones, zeros),
                                         (j, kj, zeros, ones)):
                free = ~(known | known >> size) & low
                if free & (rise | fall):
                    u = known & low | rise & free | _moved(fall & free,
                                                           one[c])
                    d = _moved(u, one[c])
                    rf[c], fr[c] = u | d << size, d | u << size
                    moved = True
            seen[k] = rf[i], rf[j]
    if any((k | k >> size) & low != low for k in rf[1:]):
        return None
    return [k & low for k in rf]


class _NdxorProgram(NamedTuple):
    """The NDXOR schedule of a skeleton's baobab slots.

    NDXOR fires on a plaquette with exactly one unknown edge, so which
    plaquettes fire, in what order, and which edge each one writes
    depend only on which edges are known.  `order` lists the fired
    plaquettes and `flat` holds, per step, (output id, input ids).
    """

    slots: frozenset[int]
    order: tuple[int, ...]
    flat: tuple[tuple[int, int, int, int], ...]

    def run(self, vals: list) -> list:
        """Fill `vals`, which holds a bit on every slot id, in place."""
        for out, a, b, c in self.flat:
            vals[out] = 1 ^ vals[a] ^ vals[b] ^ vals[c]
        return vals


def _ndxor_program(skeleton: Adinkra, ids=None) -> _NdxorProgram | None:
    """The skeleton's compiled NDXOR program, built on first use and kept
    in its plaquette table; None when the skeleton has none, or when
    `ids` (edge ids, if given) are not exactly its slots.  A known set
    of another size never builds it."""
    if ids is not None and len(ids) != (
            len(skeleton.nodes) - 1 + skeleton.code.k):
        return None
    table = _plaquette_ids(skeleton)
    if table.program is None:
        table.program = _compile_ndxor(skeleton, table)
    program = table.program or None
    if program is None or ids is None or program.slots.issuperset(ids):
        return program
    return None


def _compile_ndxor(skeleton: Adinkra, table) -> _NdxorProgram | bool:
    """The NDXOR program of the baobab slots: one engine run from
    all-zero slots, each firing as (output id, the other three ids in
    quad order).  False if the run contradicts or leaves an edge
    unknown (the quaternion skeleton).

    Such a run proves the program exact for every slot assignment.  The
    NDXOR schedule does not depend on the values.  The run's output is
    a valid dashing (the engine raises on any complete even plaquette),
    so the valid dashings form an affine code of dimension
    2**n + k - 1, the slot count (see `codec.family_code`).  Each step writes
    the only bit that keeps its plaquette odd, so the program rebuilds
    every valid dashing from its slot bits: restriction to the slots is
    injective, so with 2**|slots| dashings it is onto, and every slot
    assignment runs to a valid dashing."""
    tree, cycles, _ = skeleton_baobab_edges(skeleton)
    slots = [table.index[e] for e in tree + cycles]
    vals = [None] * len(skeleton.edges)
    for i in slots:
        vals[i] = 0
    try:
        order, flat = _ndxor_engine(table, vals, slots, skeleton.length)
    except ContradictionError:
        return False
    if None in vals:
        return False
    return _NdxorProgram(frozenset(slots), tuple(order), tuple(flat))


def _check_head(e: Edge, head) -> int:
    if not json_int(head) or head not in (e.u, e.v):
        raise InputError(f"head {head} is not an endpoint of {e}")
    return head


def propagate_dashing(
    skeleton: Adinkra, known: Mapping[Edge, int]
) -> tuple[dict[Edge, int], GateTrace]:
    """Extend known dashing bits over all edges via NDXOR inference.

    Plaquettes fire in canonical order, so equal inputs always give the
    identical trace.  Known bits on exactly the baobab slots run the
    skeleton's compiled NDXOR program.
    """
    return _propagate(skeleton, known, lambda e, b: check_bit(b, "bit", e))


def propagate_directions(
    skeleton: Adinkra, pinned: Mapping[Edge, int]
) -> tuple[dict[Edge, int], GateTrace]:
    """Extend pinned arrows (edge -> head node) to all edges.

    Around every plaquette exactly two arrows run against the
    traversal (trail bit 1).  With `need` such arrows still missing,
    need 0 forces every unknown trail bit to 0 and need equal to their
    number forces them all to 1 (DXOR); anything between forces nothing.
    """
    return _propagate(skeleton, pinned, _check_head, directions=True)


def heights_from_directions(
    skeleton: Adinkra, heads: Mapping[Edge, int]
) -> dict[int, int]:
    """Integrate arrows into heights (head = tail + 1), minimum at 0,
    keyed in node order.

    Heights are the potential of the arrows, so the canonical tree
    (`skeleton_tree`) sets them, parent before child in its (u, color)
    order, and one pass checks every edge; the first edge, in edge
    order, whose arrow disagrees is the one a ContradictionError names."""
    edges = skeleton.edges
    for e in edges:
        if e not in heads:
            raise InputError(f"direction missing for edge {e}")
        _check_head(e, heads[e])
    heights = dict.fromkeys(skeleton.nodes, 0)
    for e in skeleton_tree(skeleton):
        u, v, _ = e
        heights[v] = heights[u] + (1 if heads[e] == v else -1)
    for e in edges:
        u, v, _ = e
        head = heads[e]
        if heights[head] != heights[u ^ v ^ head] + 1:
            raise ContradictionError(
                f"arrows around {e} close a loop with nonzero rise")
    return normalize_heights(heights)


# ---------- baobab structure ----------


def _slot_order(edges) -> tuple[Edge, ...]:
    """Tree and cycle edges in canonical slot order: by u, then color."""
    return tuple(sorted(edges, key=lambda e: (e.u, e.color)))


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
        return _slot_order(self.tree_edges + self.cycle_edges)

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
        n, gens = json_header(obj)
        length = chromotopology_code(n, gens).length
        edge_fields = ("u", "v", "color")
        tree = tuple(
            json_edge(r, length)
            for r in json_object_rows(obj, "tree_edges", edge_fields)
        )
        cycles = []
        odd_sets = []
        cycle_rows = json_object_rows(
            obj, "cycle_edges", edge_fields + ("odd_colors",)
        )
        for r in cycle_rows:
            cycles.append(json_edge(r, length))
            colors = r["odd_colors"]
            if not isinstance(colors, list) or not all(
                json_int(c) for c in colors
            ):
                raise InputError(f"odd_colors must list integers: {colors!r}")
            odd_sets.append(frozenset(colors))
        if not tree and not cycles:
            raise InputError("baobab has no edges")
        slots = _slot_order(tree + tuple(cycles))
        bits = dict(zip(slots, read_bits(obj["bits"], len(slots),
                                         "the baobab slots", text=True)))
        pinned = {}
        for r in json_object_rows(obj, "pinned", edge_fields + ("toward",)):
            e = json_edge(r, length)
            toward, lt = parse_bit_string(r["toward"])
            if lt != length or toward not in (e.u, e.v):
                raise InputError(f"pinned arrow {r} has a bad head")
            pinned[e] = toward
        return cls(n, tuple(gens), length, tree, tuple(cycles),
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


def _tree_edge(x: int, length: int) -> Edge:
    """The canonical tree edge from node x > 0 up to its parent, x with
    its leading bit cleared, along the color of that bit."""
    top = x.bit_length() - 1
    return Edge(x ^ 1 << top, x, length - top)


def skeleton_tree(skeleton: Adinkra) -> tuple[Edge, ...]:
    """Canonical spanning tree: each node links to the representative
    with its top bit cleared (which is again a representative).

    A node's ancestors are its labels with leading bits cleared, so its
    depth is its bit count and two nodes meet at the bits below the
    lowest one where they differ (`_tree_path`).  Built once per graph,
    like `plaquettes`, from the graph's own edges in their (u, color)
    order: (u, v, c) is a tree edge exactly when u ^ v is the single
    bit of color c and u lies below it.  That bit is a node's, at most
    the highest bit of the last node, so only the edges whose u lies
    below that bit are read."""
    table = _graph_table(skeleton)
    if table.tree is None:
        length = skeleton.length
        bit = [0] + [color_bit(c, length) for c in skeleton.colors()]
        edges = skeleton.edges
        top = 1 << (skeleton.nodes[-1].bit_length() - 1)
        head = edges[:bisect_left(edges, (top,))]
        table.tree = tuple(e for e, (u, v, c) in zip(head, head)
                           if u ^ v == bit[c] > u)
    return table.tree


def skeleton_baobab_edges(skeleton: Adinkra):
    """(tree_edges, cycle_edges, odd_color_sets) for a skeleton.

    Generator g's cycle edge leaves node 0 along the color c of g's
    leading (pivot) bit: d_c = e_c ^ g, so the edge runs to g ^ e_c and
    wraps g.  Every color-c edge wraps g and no other edge does; the one
    at node 0 comes first in canonical edge order."""
    tree = skeleton_tree(skeleton)
    length = skeleton.length
    cycles = []
    for g in skeleton.code.generators:
        top = g.bit_length() - 1
        cycles.append(Edge(0, g ^ 1 << top, length - top))
    return tree, tuple(cycles), tuple(
        cycle_color_set(e, length) for e in cycles)


# ---------- extraction ----------


def _extremal_nodes(adinkra: Adinkra, up: list[int]):
    """(sources, sinks): nodes below, or above, all their neighbours
    x ^ d_I.  Sources are the ranks on every color's up plane of the
    heights (`up`, from `_RankPlanes.rising`), and sinks those on every
    color's fall plane, the delta swap σ_c(up[c]): the edge at rank r
    falls as it leaves r where the edge at r ^ δ_c rises."""
    ranks = _rank_planes(adinkra)
    nodes = adinkra.nodes
    out = []
    for planes in (up[1:], map(_moved, up[1:], ranks.swaps()[1:])):
        common = (1 << ranks.size) - 1
        for plane in planes:
            common &= plane
        # bit r of `common` is rank r, the binary digits run from the top
        digits = format(common, f"0{ranks.size}b")[::-1]
        out.append(list(compress(nodes, map("1".__eq__, digits))))
    return tuple(out)


def _tree_path(a: int, b: int, length: int) -> list[Edge]:
    """Tree edges from a up to the lowest common ancestor of a and b,
    then from b up to it.  The ancestor keeps the bits below the lowest
    one where a and b differ."""
    d = a ^ b
    meet = a & ((d & -d) - 1)
    out = []
    for x in (a, b):
        while x != meet:
            e = _tree_edge(x, length)
            out.append(e)
            x = e.u
    return out


def choose_pinned_arrows(adinkra: Adinkra) -> dict[Edge, int]:
    """Deterministic pinned-arrow selection along the spanning tree.

    Extremal nodes (sources and sinks) must each touch a pinned edge.
    Adjacent extremal pairs are matched leaf-up along tree edges; the
    leftovers are paired source-to-sink and the whole tree path between
    them is pinned; any stragglers pin their smallest tree edge: the
    edge to the parent, or the first tree edge for node 0.
    """
    heights = checked_heights(adinkra, "pinning needs heights")
    return _pinned_arrows(adinkra, _rank_planes(adinkra).rising(
        list(map(heights.get, adinkra.nodes))))


def _pinned_arrows(adinkra: Adinkra, up: list[int]) -> dict[Edge, int]:
    """`choose_pinned_arrows` for checked heights whose up planes
    (`_RankPlanes.rising`) are `up`."""
    heights = adinkra.heights
    length = adinkra.length
    sources, sinks = _extremal_nodes(adinkra, up)
    extremal = set(sources) | set(sinks)

    pinned: dict[Edge, int] = {}

    def pin(e: Edge) -> None:
        pinned[e] = e.u if heights[e.u] > heights[e.v] else e.v

    covered: set[int] = set()
    # deepest first: a node's depth is its bit count
    order = sorted(adinkra.nodes, key=lambda x: (-x.bit_count(), x))
    for x in order:
        if x not in extremal or x in covered or x == 0:
            continue
        e = _tree_edge(x, length)
        if e.u in extremal and e.u not in covered:
            pin(e)
            covered.add(x)
            covered.add(e.u)

    left_sources = [x for x in sources if x not in covered]
    left_sinks = [x for x in sinks if x not in covered]
    for a, b in zip(left_sources, left_sinks):
        for e in _tree_path(a, b, length):
            pin(e)
        covered.add(a)
        covered.add(b)

    # node 0's first tree edge leads to the node holding only the
    # highest non-pivot bit, halfway down the node list
    nodes = adinkra.nodes
    for x in extremal - covered:
        pin(_tree_edge(x or nodes[len(nodes) // 2], length))
        covered.add(x)

    return pinned


def extract_baobab(adinkra: Adinkra) -> Baobab:
    """Reduce a valid adinkra to its determining bits and arrows.

    The result is verified on the spot: dashing bits must propagate
    back to the full dashing and pinned arrows to the full height
    assignment, otherwise the extraction refuses loudly.

    For the dashing, `verify_odd_dashing`'s verdict on the node-rank
    planes is the whole check.  A skeleton without an NDXOR program has
    no odd dashing (`count_valid_dashings`), so the verdict refuses every
    adinkra on it.  With a program, the odd dashings form an affine code
    whose slots pin each word, and the program rebuilds each of them
    from its slot bits, which are the baobab bits (`_compile_ndxor`;
    Doran et al., arXiv:1108.4124; Zhang, arXiv:1111.6055).  For the
    arrows, the DXOR sweep from the pins (`_swept_up`) is compared with
    the heights' up planes, read once and shared with the pin selection;
    only when they differ does the engine run, for its exact error.
    """
    if adinkra.dashing is None or adinkra.heights is None:
        raise InputError("extraction needs both dashing and heights")
    for verify in (verify_odd_dashing, verify_heights):
        report = verify(adinkra)
        if not report:
            raise InputError(f"invalid adinkra: {report.summary()}")

    tree, cycles, odd_sets = skeleton_baobab_edges(adinkra)
    dashing, heights = adinkra.dashing, adinkra.heights
    bits = {e: (1 if dashing[e] == 1 else 0) for e in tree + cycles}

    up = _rank_planes(adinkra).rising(list(map(heights.get, adinkra.nodes)))
    pinned = _pinned_arrows(adinkra, up)
    # the sweep's up planes against the heights': equal, every arrow
    # agrees; else the engine names the first edge that does not
    if _swept_up(adinkra, pinned) != up:
        heads, _dtrace = propagate_directions(adinkra, pinned)
        unresolved = [e for e in adinkra.edges if e not in heads]
        if unresolved:
            raise InsufficientPinningError(
                f"pinned arrows leave {len(unresolved)} edge direction(s) "
                "undetermined",
                unresolved=unresolved,
            )
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
    # propagation writes only the skeleton's edges
    if len(bits) < len(skeleton.edges):
        missing = [e for e in skeleton.edges if e not in bits]
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
    return skeleton._decorated(signs, heights), dash_trace, dir_trace


# ---------- counting ----------


def count_valid_dashings(skeleton: Adinkra) -> int:
    """Number of dashings with odd parity on every plaquette: 2**|slots|
    of the compiled NDXOR program (see `_compile_ndxor`), or 0 without
    one.  A skeleton has a program exactly when that parity system is
    solvable: the quaternion skeleton and the quotients by 111 and 1110
    have neither.  `extract_baobab` relies on this too: an odd dashing
    means a program that rebuilds it from the baobab bits."""
    program = _ndxor_program(skeleton)
    return 0 if program is None else 1 << len(program.slots)
