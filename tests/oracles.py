"""Independent brute-force reference implementations.

Everything here is deliberately written from first principles — plain
loops, plain integers, numpy for the matrix oracle — so test
expectations never come from the code under test.
"""

from itertools import combinations, product

import numpy as np


# ---------- GF(2) ----------


def xor_span(generators):
    words = {0}
    for g in generators:
        words |= {w ^ g for w in words}
    return sorted(words)


def doubly_even(generators):
    return all(bin(w).count("1") % 4 == 0 for w in xor_span(generators) if w)


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
        for i in range(len(rows)):
            if i != rank and rows[i] >> bit & 1:
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


def codewords_within(word, codewords, radius):
    """The codewords at Hamming distance at most ``radius`` from word."""
    return [
        c
        for c in codewords
        if sum(x != y for x, y in zip(word, c)) <= radius
    ]
