"""Independent brute-force reference implementations.

Everything here is deliberately written from first principles — plain
loops, plain integers, numpy for the matrix oracle — so test
expectations never come from the code under test.  The graph-layer
builders, the restart-scan propagators, the affine-form NDXOR compiler
and the Monomial-object algebra at the end are the exception: they
reuse the package's color steps, plaquettes, baobab slots, step
records and Monomial types so their results compare field for field.
"""

import json
from heapq import heappop, heappush
from itertools import combinations, product
from typing import Mapping

import numpy as np

from adinkra.algebra import (
    MINUS_ONE,
    ZERO,
    AlgebraReport,
    AlgebraViolation,
    GammaSet,
    Monomial,
    MonomialMatrix,
    mat_neg,
    strip_derivatives,
)
from adinkra.baobab import (
    GateStep,
    GateTrace,
    _NdxorProgram,
    _check_head,
    dxor,
    ndxor,
    skeleton_baobab_edges,
    skeleton_tree,
)
from adinkra.codec import (
    DASHING,
    Correction,
    family_code,
    family_skeleton,
    syndrome,
)
from adinkra.codes import AffineCode, bit_string, check_bit
from adinkra.errors import (
    AmbiguousCorrectionError,
    ContradictionError,
    GradedSumError,
    InputError,
    ReplayError,
    UncorrectableError,
    UnderDeterminedError,
)
from adinkra.graph import (
    Adinkra,
    Edge,
    Plaquette,
    VerificationReport,
    _color_steps,
    boson_nodes,
    fermion_nodes,
    normalize_heights,
    plaquettes,
)


# ---------- GF(2) ----------


def xor_span(generators):
    words = {0}
    for g in generators:
        words |= {w ^ g for w in words}
    return sorted(words)


def code_words(code):
    """Every word of an affine code, ascending: all 2**dim of them."""
    return sorted(code.offset ^ w for w in xor_span(code.basis))


def affine_code_from_words(words, n_bits):
    """The affine code whose words are exactly `words`: the first word
    plus the span of the differences, refused unless that span has as
    many words as `words` has distinct ones."""
    words = [int(w) for w in words]
    if not words:
        raise InputError("an affine code needs at least one word")
    code = AffineCode(n_bits, words[0], tuple(w ^ words[0] for w in words))
    if 1 << code.dim != len(set(words)):
        raise InputError(
            f"{len(words)} words do not form an affine space "
            f"(their differences have rank {code.dim})"
        )
    return code


def doubly_even(generators):
    return all(bin(w).count("1") % 4 == 0 for w in xor_span(generators) if w)


def doubly_even_codes(length):
    """Every nonzero doubly even code of the given length, each as the
    sorted list of its words; found by growing {0} one weight-0-mod-4
    word at a time and keeping the spans that stay doubly even."""
    good = [w for w in range(1, 1 << length) if bin(w).count("1") % 4 == 0]
    codes, frontier = set(), {frozenset({0})}
    while frontier:
        grown = set()
        for code in frontier:
            for w in good:
                if w in code:
                    continue
                bigger = frozenset(code | {x ^ w for x in code})
                if bigger not in codes and all(
                    bin(x).count("1") % 4 == 0 for x in bigger
                ):
                    codes.add(bigger)
                    grown.add(bigger)
        frontier = grown
    return sorted(sorted(c) for c in codes)


def gf2_rank(rows):
    rows = list(rows)
    rank = 0
    for bit in reversed(range(max((r.bit_length() for r in rows), default=0))):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i] >> bit & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # rows above the pivot row keep their bits: the rank needs only
        # the rows below cleared
        for i in range(pivot + 1, len(rows)):
            if rows[i] >> bit & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


# ---------- hypercubes ----------


def cube_edges(n):
    """n-cube edges as (u, v, color) with color 1 flipping the top bit,
    sorted by (smaller endpoint, color)."""
    out = []
    for u in range(1 << n):
        for c in range(1, n + 1):
            v = u ^ (1 << (n - c))
            if u < v:
                out.append((u, v, c))
    out.sort(key=lambda e: (e[0], e[2]))
    return out


def cube_plaquette_quads(n):
    """Plaquettes of the n-cube as 4-tuples of edge indices."""
    edges = cube_edges(n)
    index = {e: i for i, e in enumerate(edges)}
    quads = []
    for ci in range(1, n + 1):
        for cj in range(ci + 1, n + 1):
            bi, bj = 1 << (n - ci), 1 << (n - cj)
            for base in range(1 << n):
                if base & bi or base & bj:
                    continue
                corners = [base, base ^ bi, base ^ bi ^ bj, base ^ bj]
                quad = []
                for step in range(4):
                    a, b = corners[step], corners[(step + 1) % 4]
                    color = ci if step % 2 == 0 else cj
                    quad.append(index[(min(a, b), max(a, b), color)])
                quads.append(tuple(quad))
    return quads


def naive_quotient(length, code_words):
    """Nodes, edges and plaquettes of the length-bit cube quotiented by
    the code whose words are listed: every label maps to the minimum of
    its coset, taken over the whole span.  Edges are (u, v, color);
    plaquettes are (base, (I, J), corners, edges) in (I, J, base) order,
    each listed from the first node of its four-cycle."""
    rep = [min(x ^ w for w in code_words) for x in range(1 << length)]
    nodes = [x for x in range(1 << length) if rep[x] == x]

    def bit(color):
        return 1 << (length - color)

    edges = []
    for u in nodes:
        for color in range(1, length + 1):
            v = rep[u ^ bit(color)]
            if u < v:
                edges.append((u, v, color))
    edges.sort(key=lambda e: (e[0], e[2]))
    plaqs = []
    for ci, cj in combinations(range(1, length + 1), 2):
        seen = set()
        for base in nodes:
            if base in seen:
                continue
            corners = (
                base,
                rep[base ^ bit(ci)],
                rep[base ^ bit(ci) ^ bit(cj)],
                rep[base ^ bit(cj)],
            )
            seen.update(corners)
            sides = tuple(
                (
                    min(corners[s], corners[(s + 1) % 4]),
                    max(corners[s], corners[(s + 1) % 4]),
                    ci if s % 2 == 0 else cj,
                )
                for s in range(4)
            )
            plaqs.append((base, (ci, cj), corners, sides))
    return nodes, edges, plaqs


# ---------- graph layer ----------


def naive_build_plaquettes(adinkra: Adinkra) -> tuple[Plaquette, ...]:
    """Every (pair, node) combination, kept when the node is the least
    corner of its cycle; each plaquette gets four new Edge tuples."""
    steps = _color_steps(adinkra.code)
    length = adinkra.length
    nodes = adinkra.nodes
    out = []
    for ci, cj in combinations(range(1, length + 1), 2):
        di, dj = steps[ci], steps[cj]
        if len({0, di, dj, di ^ dj}) != 4:
            raise InputError(
                f"colors ({ci}, {cj}) do not span a four-cycle at "
                f"{bit_string(nodes[0], length)}"
            )
        colors = (ci, cj)
        for base in nodes:
            a = base ^ di
            b = a ^ dj
            c = base ^ dj
            if a < base or b < base or c < base:
                continue
            # base is the least corner, so only the far edges need sorting
            edges = (
                Edge(base, a, ci),
                Edge(a, b, cj) if a < b else Edge(b, a, cj),
                Edge(b, c, ci) if b < c else Edge(c, b, ci),
                Edge(base, c, cj),
            )
            out.append(Plaquette(base, colors, (base, a, b, c), edges))
    return tuple(out)


def naive_verify_odd_dashing(adinkra: Adinkra) -> VerificationReport:
    """Every sign checked to be the int +1 or -1, edge by edge, then
    every plaquette `plaquettes` lists walked, multiplying its four
    signs: a plaquette whose product is not -1 is a violation."""
    dashing = adinkra.dashing
    if dashing is None:
        raise InputError("adinkra has no dashing to verify")
    missing = [e for e in adinkra.edges if e not in dashing]
    if missing:
        raise InputError(f"dashing missing for edges: {missing[:4]}")
    for e in adinkra.edges:
        s = dashing[e]
        if type(s) is bool or not isinstance(s, int) or s not in (1, -1):
            raise InputError(f"dashing sign for {e} must be +1 or -1, got {s}")
    bad = []
    for p in plaquettes(adinkra):
        product = 1
        for e in p.edges:
            product *= dashing[e]
        if product != -1:
            bad.append(p)
    return VerificationReport("odd-dashing", tuple(bad))


def naive_to_json(adinkra: Adinkra) -> str:
    """The canonical JSON form through `json.dumps(indent=2)`."""
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


# ---------- dashings ----------


def brute_force_dashings(n_edges, quads):
    """All bit tuples (1 plain, 0 dashed) with an odd number of dashed
    edges in every quad."""
    good = []
    for bits in product((0, 1), repeat=n_edges):
        ok = True
        for quad in quads:
            dashed = sum(1 - bits[i] for i in quad)
            if dashed % 2 == 0:
                ok = False
                break
        if ok:
            good.append(bits)
    return good


def min_even_flip_set(n_edges, quads, max_weight):
    """Size of the smallest nonempty edge set, at most max_weight edges,
    that meets every quad in an even number of edges (flipping it keeps
    every parity), or None if there is none that small."""
    for size in range(1, max_weight + 1):
        for subset in combinations(range(n_edges), size):
            chosen = set(subset)
            if all(len(chosen.intersection(q)) % 2 == 0 for q in quads):
                return size
    return None


def min_even_set_by_branching(n_edges, quads, max_weight):
    """`min_even_flip_set` without listing every subset.  Grow a set from
    its least edge: while some quad meets it in an odd number of edges,
    any even superset holds one more edge of that quad, so branch on
    them.  Deepening the size one edge at a time keeps it exact."""
    through = [[] for _ in range(n_edges)]
    for q in quads:
        for i in q:
            through[i].append(q)

    def grows(chosen, least, budget):
        odd = next((q for i in chosen for q in through[i]
                    if len(chosen.intersection(q)) % 2), None)
        if odd is None:
            return True
        return budget > 0 and any(
            grows(chosen | {j}, least, budget - 1)
            for j in odd if j > least and j not in chosen)

    for size in range(1, max_weight + 1):
        if any(grows({e}, e, size - 1) for e in range(n_edges)):
            return size
    return None


def stopping_sets(n_bits, supports, max_size):
    """Stopping sets of at most `max_size` positions, among them every
    minimal one: sets that no support meets exactly once, on which
    peeling stalls.  Grow a set from its least position: while some
    support meets it once, any stopping superset holds one more of that
    support's positions, so branch on those above the least.  Sorted
    tuples, in order."""
    through = [[] for _ in range(n_bits)]
    for s in supports:
        for i in s:
            through[i].append(s)
    found = set()

    def grow(chosen, least):
        once = next((s for i in chosen for s in through[i]
                     if len(chosen.intersection(s)) == 1), None)
        if once is None:
            found.add(tuple(sorted(chosen)))
        elif len(chosen) < max_size:
            for j in once:
                if j > least and j not in chosen:
                    grow(chosen | {j}, least)

    for e in range(n_bits):
        grow({e}, e)
    return sorted(found)


def naive_min_distance(words):
    best = None
    for a, b in combinations(words, 2):
        d = sum(x != y for x, y in zip(a, b))
        if best is None or d < best:
            best = d
    return best


# ---------- connectivity ----------


def spans_all_nodes(nodes, edge_pairs):
    """True when the given edges connect every node."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_pairs:
        parent[find(u)] = find(v)
    roots = {find(x) for x in nodes}
    return len(roots) == 1


# ---------- baobab structure ----------
#
# The canonical tree's paths, the cycle edges, the extremal nodes and the
# pinned-arrow choice found by walking edge lists and parent dicts, as
# first written; the library reads them off the node labels.


def naive_tree_path(tree, a, b):
    """Tree edges between a and b, found by BFS over the tree edges:
    those from a up to the path's node nearest the root (node 0), then
    those from b up to it."""
    adjacent = {}
    for e in tree:
        adjacent.setdefault(e.u, []).append((e.v, e))
        adjacent.setdefault(e.v, []).append((e.u, e))

    def bfs(source):
        """node -> (distance, (next node toward source, edge))."""
        seen = {source: (0, None)}
        frontier = [source]
        while frontier:
            later = []
            for x in frontier:
                for y, e in adjacent.get(x, ()):
                    if y not in seen:
                        seen[y] = (seen[x][0] + 1, (x, e))
                        later.append(y)
            frontier = later
        return seen

    toward_b, depth = bfs(b), bfs(0)
    nodes, edges = [a], []
    while nodes[-1] != b:
        x, e = toward_b[nodes[-1]][1]
        nodes.append(x)
        edges.append(e)
    turn = min(range(len(nodes)), key=lambda i: depth[nodes[i]][0])
    return edges[:turn] + edges[turn:][::-1]


def naive_cycle_edges(skeleton: Adinkra):
    """(cycle_edges, odd_color_sets): per generator g, the first non-tree
    edge in edge order whose cycle word u ^ v ^ e_color is g."""
    tree = set(skeleton_tree(skeleton))
    length = skeleton.length
    cycles, odd_sets = [], []
    for g in skeleton.code.generators:
        for e in skeleton.edges:
            if e not in tree and e.u ^ e.v ^ 1 << (length - e.color) == g:
                cycles.append(e)
                odd_sets.append(frozenset(
                    length - p for p in range(length) if g >> p & 1))
                break
        else:
            raise UnderDeterminedError(
                f"no fundamental cycle matches generator "
                f"{bit_string(g, length)}")
    return tuple(cycles), tuple(odd_sets)


def naive_extremal_nodes(adinkra: Adinkra):
    """(sources, sinks) from neighbour lists built off the edges."""
    heights = adinkra.heights
    neighbours = {x: [] for x in adinkra.nodes}
    for e in adinkra.edges:
        neighbours[e.u].append(e.v)
        neighbours[e.v].append(e.u)
    sources, sinks = [], []
    for x in adinkra.nodes:
        hs = [heights[y] for y in neighbours[x]]
        if all(h > heights[x] for h in hs):
            sources.append(x)
        elif all(h < heights[x] for h in hs):
            sinks.append(x)
    return sources, sinks


def naive_choose_pinned_arrows(adinkra: Adinkra) -> dict[Edge, int]:
    """`choose_pinned_arrows` over a parent dict and depths counted by
    walking it, with BFS tree paths and each straggler's smallest
    touching tree edge found by a scan."""
    tree = skeleton_tree(adinkra)
    parent = {x: None for x in adinkra.nodes}
    for e in tree:
        parent[e.v] = (e.u, e)  # tree edges run parent -> larger child
    depth = {}
    for x in adinkra.nodes:
        y, depth[x] = x, 0
        while parent[y] is not None:
            y, depth[x] = parent[y][0], depth[x] + 1
    sources, sinks = naive_extremal_nodes(adinkra)
    extremal = set(sources) | set(sinks)
    heights = adinkra.heights
    pinned = {}

    def pin(e):
        pinned[e] = e.u if heights[e.u] > heights[e.v] else e.v

    covered = set()
    for x in sorted(adinkra.nodes, key=lambda x: (-depth[x], x)):
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
        for e in naive_tree_path(tree, a, b):
            pin(e)
        covered.add(a)
        covered.add(b)
    for x in extremal - covered:
        pin(min((e for e in tree if x in (e.u, e.v)),
                key=lambda e: (e.u, e.color)))
        covered.add(x)
    return pinned


# ---------- quaternion relations via numpy ----------


def np_matrices(oriented_edges):
    """Integer matrices from (tail, head, unit) triples over nodes
    indexed 0..3; +1 at [tail, head], -1 at [head, tail]."""
    mats = {u: np.zeros((4, 4), dtype=int) for u in "ijk"}
    for tail, head, unit in oriented_edges:
        mats[unit][tail, head] = 1
        mats[unit][head, tail] = -1
    return mats


def np_quaternion_ok(mats):
    """Check the seven quaternion relations with numpy arithmetic."""
    ident = np.eye(4, dtype=int)
    mi, mj, mk = mats["i"], mats["j"], mats["k"]
    return (
        np.array_equal(mi @ mi, -ident)
        and np.array_equal(mj @ mj, -ident)
        and np.array_equal(mk @ mk, -ident)
        and np.array_equal(mi @ mj @ mk, -ident)
        and np.array_equal(mi @ mj + mj @ mi, np.zeros((4, 4), dtype=int))
        and np.array_equal(mi @ mk + mk @ mi, np.zeros((4, 4), dtype=int))
        and np.array_equal(mj @ mk + mk @ mj, np.zeros((4, 4), dtype=int))
    )


def quaternion_direction_words(edges):
    """All direction bit tuples over (u, v, unit) edges whose numpy
    matrices satisfy the seven relations; bit 1 orients u -> v."""
    good = []
    for bits in product((0, 1), repeat=len(edges)):
        oriented = [
            (u, v, unit) if b else (v, u, unit)
            for (u, v, unit), b in zip(edges, bits)
        ]
        if np_quaternion_ok(np_matrices(oriented)):
            good.append(bits)
    return good


def codewords(family):
    """Every valid block of a family, ascending as integers with bit i =
    position i: all 2**dim words of its affine code, unguarded."""
    code = family_code(family)
    return tuple(tuple(w >> i & 1 for i in range(code.n_bits))
                 for w in code_words(code))


def codewords_within(word, codewords, radius):
    """The codewords at Hamming distance at most ``radius`` from word."""
    return [
        c
        for c in codewords
        if sum(x != y for x, y in zip(word, c)) <= radius
    ]


def codewords_agreeing(word, erased, codewords):
    """The codewords equal to ``word`` at every position not erased."""
    return [
        c
        for c in codewords
        if all(x == y for i, (x, y) in enumerate(zip(word, c))
               if i not in erased)
    ]


# ---------- the correction walk ----------
#
# The decoder as first written: every flip set of each size, in
# `combinations` order, compared by its per-bit residues in the family's
# affine code.  No size guard: keep it to small blocks.


def residue(code, word):
    """`word ^ code.offset` with every kernel pivot cleared, the basis
    rows taken from the highest pivot down.  Linear in `word ^ offset`
    and zero exactly on codewords; the coset's one word that is zero on
    every pivot, whatever the offset and basis."""
    word ^= code.offset
    for row in code.basis:
        if word >> (row.bit_length() - 1) & 1:
            word ^= row
    return word


def unit_residues(code):
    """Entry i is `residue(code, code.offset ^ 1 << i)`: flipping a set
    of bits changes the residue by the XOR of their entries."""
    return tuple(residue(code, code.offset ^ 1 << i)
                 for i in range(code.n_bits))


def naive_violations(vector):
    """The descriptions of the checks the block violates, in syndrome
    order: a dashing block's plaquettes of even parity, read off the
    plaquettes themselves, or the quaternion's broken relations."""
    family = vector.family
    if family.scheme != DASHING:
        return syndrome(vector).describe()
    skeleton = family_skeleton(family)
    length = skeleton.length
    index = {e: i for i, e in enumerate(skeleton.edges)}
    return tuple(
        f"plaquette colors={p.colors} base={bit_string(p.base, length)}"
        for p in plaquettes(skeleton)
        if not sum(vector.bits[index[e]] for e in p.edges) % 2)


def naive_correct(vector, max_flips=1):
    """`codec.correct` by the walk: the same hits, candidate order,
    results and error texts for a budget of 0 or more."""
    code = family_code(vector.family)
    columns = unit_residues(code)
    target = residue(code, sum(b << i for i, b in enumerate(vector.bits)))
    if not target:
        return Correction(vector, ())
    for size in range(1, max_flips + 1):
        hits = []
        for flips in combinations(range(code.n_bits), size):
            got = 0
            for i in flips:
                got ^= columns[i]
            if got == target:
                hits.append(flips)
        if len(hits) == 1:
            return Correction(vector.flip(hits[0]), hits[0])
        if len(hits) > 1:
            raise AmbiguousCorrectionError(
                f"{len(hits)} distinct {size}-bit corrections clear the "
                "syndrome",
                candidates=tuple(hits),
            )
    violated = naive_violations(vector)
    first = ", the first 3" if len(violated) > 3 else ""
    raise UncorrectableError(
        f"detected-uncorrectable: no correction within {max_flips} flip(s); "
        f"{len(violated)} checks violated{first}: {', '.join(violated[:3])}"
    )


# ---------- restart-scan propagation ----------
#
# The library's NDXOR and DXOR propagation as first written: scan the
# plaquettes from the first after every inference, and enumerate every
# completion of a plaquette's unknown trail bits.  Quadratic, but its
# traces, fixpoints and contradictions are the reference the worklist
# engine must reproduce.


def naive_propagate_dashing(
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
        bits[e] = check_bit(b, f"bit for {e}")
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


def naive_propagate_directions(
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
            trail = plaquette_trail(p)
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


def naive_heights_from_directions(
    skeleton: Adinkra, heads: Mapping[Edge, int]
) -> dict[int, int]:
    """`baobab.heights_from_directions` as first written: a BFS from the
    first node over per-node (neighbour, rise, edge) steps, keyed in the
    order it reaches the nodes.  Its loop error names the first edge the
    walk finds disagreeing, and it reads the graph without the graph
    rule."""
    steps: dict[int, list] = {x: [] for x in skeleton.nodes}
    for e in skeleton.edges:
        if e not in heads:
            raise InputError(f"direction missing for edge {e}")
        u, v, _ = e
        rise = 1 if _check_head(e, heads[e]) == v else -1
        steps[u].append((v, rise, e))
        steps[v].append((u, -rise, e))
    heights = {skeleton.nodes[0]: 0}
    queue = [skeleton.nodes[0]]
    for x in queue:  # breadth first: the loop reads what it appends
        base = heights[x]
        for other, rise, e in steps[x]:
            h = base + rise
            if other in heights:
                if heights[other] != h:
                    raise ContradictionError(
                        f"arrows around {e} close a loop with nonzero rise"
                    )
            else:
                heights[other] = h
                queue.append(other)
    return normalize_heights(heights)


def naive_compile_ndxor(skeleton: Adinkra) -> _NdxorProgram | bool:
    """`baobab._compile_ndxor` as first written: run NDXOR on the baobab
    slots without values, as the engine's heap would pop it.  The
    program stands in for the engine only if, for every slot assignment,
    it reaches every edge and leaves no plaquette of even parity: each
    edge's bit is tracked as an affine form in the slot bits (bit 0 the
    constant, bit k + 1 slot k), and every plaquette's four forms must
    sum to the constant 1.  Else False."""
    try:
        tree, cycles, _ = skeleton_baobab_edges(skeleton)
    except (InputError, UnderDeterminedError):
        return False
    index = {e: i for i, e in enumerate(skeleton.edges)}
    quads = [tuple(index[e] for e in p.edges) for p in plaquettes(skeleton)]
    incidence = [[] for _ in skeleton.edges]
    for j, quad in enumerate(quads):
        for i in quad:
            incidence[i].append(j)
    slots = [index[e] for e in tree + cycles]
    form = [None] * len(skeleton.edges)
    unknown = [4] * len(quads)
    for k, i in enumerate(slots):
        form[i] = 2 << k
        for j in incidence[i]:
            unknown[j] -= 1
    heap = [j for j, u in enumerate(unknown) if u == 1]  # ascending: a heap
    order, flat = [], []
    while heap:
        j = heappop(heap)
        if unknown[j] != 1:
            continue
        q0, q1, q2, q3 = quads[j]
        if form[q0] is None:
            step = q0, q1, q2, q3
        elif form[q1] is None:
            step = q1, q0, q2, q3
        elif form[q2] is None:
            step = q2, q0, q1, q3
        else:
            step = q3, q0, q1, q2
        out, a, b, c = step
        form[out] = 1 ^ form[a] ^ form[b] ^ form[c]
        order.append(j)
        flat.append(step)
        for t in incidence[out]:
            unknown[t] -= 1
            if unknown[t] == 1:
                heappush(heap, t)
    if None in form or any(form[a] ^ form[b] ^ form[c] ^ form[d] != 1
                           for a, b, c, d in quads):
        return False
    return _NdxorProgram(frozenset(slots), tuple(order), tuple(flat))


def plaquette_trail(p: Plaquette):
    """Steps (from_node, to_node, edge) around a plaquette's cycle:
    edge k runs from corners[k] to corners[k + 1]."""
    c = p.corners
    return tuple((c[i], c[(i + 1) % 4], p.edges[i]) for i in range(4))


def trail_from_corners(corners, colors):
    """Steps (from, to, edge) around a recorded plaquette: corners in
    traversal order, steps alternating the two colors."""
    ci, cj = colors
    out = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        color = ci if i % 2 == 0 else cj
        out.append((a, b, Edge(min(a, b), max(a, b), color)))
    return tuple(out)


def naive_replay_directions(trace: GateTrace,
                            seeds: Mapping[Edge, int]) -> dict[Edge, int]:
    """`GateTrace.replay_directions` with each step's trail rebuilt and
    looked up by edge, as first written."""
    heads = dict(seeds)
    for num, s in enumerate(trace.steps, 1):
        if s.gate != "DXOR":
            raise ReplayError(f"step {num}: expected DXOR, got {s.gate}")
        trail = trail_from_corners(s.corners, s.colors)
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
        if e not in by_edge:
            raise ReplayError(f"step {num}: output {e} not on the cycle")
        frm, to = by_edge[e]
        head = to if b == 0 else frm
        if e in heads and heads[e] != head:
            raise ReplayError(f"step {num}: output {e} already oriented")
        heads[e] = head
    return heads


def stepwise_replay_dashing(trace: GateTrace,
                            seeds: Mapping[Edge, int]) -> dict[Edge, int]:
    """`GateTrace.replay_dashing` as it was before its lookup fast path:
    every check on every step."""
    bits = {e: check_bit(b, "seed", e) for e, b in seeds.items()}
    for num, s in enumerate(trace.steps, 1):
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


def stepwise_trail_ends(edge: Edge, corners, colors):
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


def stepwise_replay_directions(trace: GateTrace,
                               seeds: Mapping[Edge, int]) -> dict[Edge, int]:
    """`GateTrace.replay_directions` as it was before its trail map:
    every check on every step, each input and output located on the
    trail by `stepwise_trail_ends`."""
    heads = {}
    for e, h in seeds.items():
        if (not isinstance(h, int) or isinstance(h, bool)
                or h not in (e.u, e.v)):
            raise InputError(f"head {h} is not an endpoint of {e}")
        heads[e] = h
    for num, s in enumerate(trace.steps, 1):
        if s.gate != "DXOR":
            raise ReplayError(f"step {num}: expected DXOR, got {s.gate}")
        vals = []
        for e, b in s.inputs:
            ends = stepwise_trail_ends(e, s.corners, s.colors)
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
        ends = stepwise_trail_ends(e, s.corners, s.colors)
        if ends is None:
            raise ReplayError(f"step {num}: output {e} not on the cycle")
        head = ends[1] if b == 0 else ends[0]
        if e in heads and heads[e] != head:
            raise ReplayError(f"step {num}: output {e} already oriented")
        heads[e] = head
    return heads


def naive_trace_jsonl(trace: GateTrace) -> str:
    """`GateTrace.to_jsonl` as first written: every row through
    `json.dumps` of nested dicts."""
    length = trace.length

    def edge_row(e: Edge, b: int) -> dict:
        return {"u": bit_string(e.u, length), "v": bit_string(e.v, length),
                "color": e.color, "bit": b}

    rows = [json.dumps({
        "gate": s.gate,
        "colors": list(s.colors),
        "base": bit_string(s.base, length),
        "corners": [bit_string(c, length) for c in s.corners],
        "inputs": [edge_row(e, b) for e, b in s.inputs],
        "output": edge_row(*s.output),
    }) for s in trace.steps]
    return "".join(row + "\n" for row in rows)


# ---------- exact algebra on Monomial objects ----------
#
# The library's matrix products, sums and relation checks as first
# written: every intermediate entry is a validated Monomial and every
# sum goes through Monomial.add.  The library's arithmetic must give
# the same matrices, errors and violation lists, in the same order.


def naive_accumulate(rows: list[dict[int, Monomial]], r: int, c: int,
                     term: Monomial) -> None:
    if term.is_zero:
        return
    cur = rows[r].get(c)
    try:
        acc = term if cur is None else cur.add(term)
    except GradedSumError:
        raise GradedSumError(
            f"mixed derivative powers at entry ({r}, {c}): "
            f"{cur} + {term}"
        ) from None
    if acc.is_zero:
        rows[r].pop(c, None)
    else:
        rows[r][c] = acc


def naive_mat_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = MonomialMatrix(a.dim)
    for t in range(a.dim):
        for u, m1 in a._rows[t].items():
            for s, m2 in b._rows[u].items():
                naive_accumulate(out._rows, t, s, m1.mul(m2))
    return out


def naive_mat_add(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = MonomialMatrix(a.dim)
    for r, c, m in a.iter_entries():
        naive_accumulate(out._rows, r, c, m)
    for r, c, m in b.iter_entries():
        naive_accumulate(out._rows, r, c, m)
    return out


def naive_anticommutator(a: MonomialMatrix,
                         b: MonomialMatrix) -> MonomialMatrix:
    return naive_mat_add(naive_mat_mul(a, b), naive_mat_mul(b, a))


def naive_compare(relation: str, got: MonomialMatrix,
                  want: MonomialMatrix, out: list) -> None:
    for r in range(got.dim):
        cols = set(got._rows[r]) | set(want._rows[r])
        for c in sorted(cols):
            g, w = got.entry(r, c), want.entry(r, c)
            if g != w:
                out.append(AlgebraViolation(relation, r, c, g, w))


def naive_adinkra_to_gamma(adinkra: Adinkra) -> GammaSet:
    """Γ matrices one color at a time, each entry a fresh Monomial set
    through `set_entry`; no validation of the adinkra."""
    bosons = boson_nodes(adinkra)
    basis = bosons + fermion_nodes(adinkra)
    index = {label: i for i, label in enumerate(basis)}
    heights = adinkra.heights
    matrices = {}
    for color in adinkra.colors():
        m = MonomialMatrix(len(basis))
        for e in adinkra.edges:
            if e.color != color:
                continue
            sign = adinkra.dashing[e]
            for s, t in ((e.u, e.v), (e.v, e.u)):
                fermionic_target = index[t] >= len(bosons)
                coeff = (0, sign) if fermionic_target else (sign, 0)
                dpow = 1 if heights[s] > heights[t] else 0
                m.set_entry(index[t], index[s], Monomial(*coeff, dpow))
        matrices[color] = m
    return GammaSet(matrices, basis, len(bosons))


def naive_check_garden(gammas: GammaSet,
                       stop_early: bool = True) -> AlgebraReport:
    """Verify {Gamma_I, Gamma_J} = 2i * d/dt * delta_IJ."""
    colors = sorted(gammas.matrices)
    dim = gammas.dim
    diag = MonomialMatrix.identity(dim, Monomial(0, 2, 1))
    zero = MonomialMatrix(dim)
    violations: list[AlgebraViolation] = []
    for i, ci in enumerate(colors):
        for cj in colors[i:]:
            try:
                got = naive_anticommutator(gammas.matrices[ci],
                                           gammas.matrices[cj])
            except GradedSumError as exc:
                violations.append(
                    AlgebraViolation(
                        f"{{G{ci}, G{cj}}}: {exc}", -1, -1, ZERO, ZERO
                    )
                )
                if stop_early:
                    return AlgebraReport("garden", tuple(violations))
                continue
            want = diag if ci == cj else zero
            naive_compare(f"{{G{ci}, G{cj}}}", got, want, violations)
            if violations and stop_early:
                return AlgebraReport("garden", tuple(violations))
    return AlgebraReport("garden", tuple(violations))


def naive_block(m: MonomialMatrix, rows: range, cols: range) -> MonomialMatrix:
    """Square sub-block read cell by cell."""
    if len(rows) != len(cols):
        raise InputError("block must be square")
    out = MonomialMatrix(len(rows))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out.set_entry(i, j, m.entry(r, c))
    return out


def naive_check_block_transpose(gammas: GammaSet) -> AlgebraReport:
    """Off-diagonal blocks of each Gamma are mutual transposes, and
    cross-color products of opposite blocks are antisymmetric, once
    entries are stripped to bare signs."""
    br, fr = gammas.boson_range(), gammas.fermion_range()
    violations: list[AlgebraViolation] = []
    stripped = {
        c: strip_derivatives(m) for c, m in sorted(gammas.matrices.items())
    }
    blocks = {
        c: (naive_block(m, br, fr), naive_block(m, fr, br))
        for c, m in stripped.items()
    }
    for c, (upper, lower) in blocks.items():
        if upper.transpose() != lower:
            naive_compare(f"G{c} block transpose", upper.transpose(), lower,
                          violations)
    for ci, (_, lower_i) in blocks.items():
        for cj, (upper_j, _) in blocks.items():
            if ci == cj:
                continue
            prod = naive_mat_mul(lower_i, upper_j)
            if prod.transpose() != mat_neg(prod):
                naive_compare(f"G{ci}·G{cj} antisymmetry", prod.transpose(),
                              mat_neg(prod), violations)
    return AlgebraReport("block-transpose", tuple(violations))


def naive_check_quaternion(
    matrices: Mapping[str, MonomialMatrix]
) -> AlgebraReport:
    """Verify i^2 = j^2 = k^2 = ijk = -1 and pairwise anticommutation."""
    for name in ("i", "j", "k"):
        if name not in matrices:
            raise InputError(f"missing quaternion matrix {name!r}")
    mi, mj, mk = matrices["i"], matrices["j"], matrices["k"]
    dims = {m.dim for m in (mi, mj, mk)}
    if dims != {4}:
        raise InputError(f"quaternion matrices must be 4x4, got dims {dims}")
    for name, m in (("i", mi), ("j", mj), ("k", mk)):
        for r, c, mono in m.iter_entries():
            if mono.dpow != 0 or mono.im != 0 or mono.re not in (1, -1):
                raise InputError(
                    f"matrix {name!r} entry ({r}, {c}) = {mono} is not a "
                    "plain sign"
                )
    neg_id = MonomialMatrix.identity(4, MINUS_ONE)
    zero = MonomialMatrix(4)
    violations: list[AlgebraViolation] = []
    naive_compare("i^2", naive_mat_mul(mi, mi), neg_id, violations)
    naive_compare("j^2", naive_mat_mul(mj, mj), neg_id, violations)
    naive_compare("k^2", naive_mat_mul(mk, mk), neg_id, violations)
    naive_compare("ijk", naive_mat_mul(naive_mat_mul(mi, mj), mk), neg_id,
                  violations)
    naive_compare("{i,j}", naive_anticommutator(mi, mj), zero, violations)
    naive_compare("{i,k}", naive_anticommutator(mi, mk), zero, violations)
    naive_compare("{j,k}", naive_anticommutator(mj, mk), zero, violations)
    return AlgebraReport("quaternion", tuple(violations))
