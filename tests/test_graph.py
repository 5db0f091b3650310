"""Chromotopology construction, plaquettes, verification, JSON."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adinkra import (
    Adinkra,
    DoublyEvenCode,
    Edge,
    InputError,
    SizeGuardError,
    boson_nodes,
    build_chromotopology,
    color_bit,
    edge_between,
    fermion_nodes,
    from_json,
    gf2_rref,
    is_boson,
    neighbor,
    normalize_heights,
    plaquette_count,
    plaquettes,
    to_json,
    valise_heights,
    verify_heights,
    verify_odd_dashing,
    weight_heights,
)


def square():
    return build_chromotopology(2, ())


def cube():
    return build_chromotopology(3, ())


def quotient31():
    return build_chromotopology(3, ("1111",))


def tesseract():
    return build_chromotopology(4, ())


# ---------- topology ----------


@pytest.mark.parametrize(
    "factory, nodes, edges, plaqs",
    [
        (square, 4, 4, 1),
        (cube, 8, 12, 6),
        (quotient31, 8, 16, 12),
        (tesseract, 16, 32, 24),
    ],
)
def test_sizes(factory, nodes, edges, plaqs):
    a = factory()
    assert len(a.nodes) == nodes
    assert len(a.edges) == edges
    assert len(plaquettes(a)) == plaqs
    assert plaquette_count(a) == plaqs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_cube_edges_match_independent_construction(n):
    a = build_chromotopology(n, ())
    assert [tuple(e) for e in a.edges] == oracles.cube_edges(n)


@pytest.mark.parametrize("n", [2, 3])
def test_full_cube_plaquettes_match_independent_construction(n):
    a = build_chromotopology(n, ())
    index = {tuple(e): i for i, e in enumerate(a.edges)}
    ours = {frozenset(index[tuple(e)] for e in p.edges) for p in plaquettes(a)}
    theirs = {frozenset(q) for q in oracles.cube_plaquette_quads(n)}
    assert ours == theirs


def test_quotient_nodes_are_minimal_coset_representatives():
    a = quotient31()
    assert a.nodes == tuple(range(8))
    # each edge joins a representative to the representative of its flip
    rep = lambda x: min(x, x ^ 0b1111)
    for u, v, c in a.edges:
        assert rep(u ^ color_bit(c, a.length)) == v
        assert rep(v ^ color_bit(c, a.length)) == u


def assert_matches_naive_quotient(length, words):
    gens = gf2_rref(words)
    a = build_chromotopology(length - len(gens), DoublyEvenCode(length, gens))
    nodes, edges, plaqs = oracles.naive_quotient(length, words)
    assert list(a.nodes) == nodes
    assert list(a.edges) == edges  # Edge tuples equal plain tuples
    assert [
        (p.base, p.colors, p.corners, p.edges) for p in plaquettes(a)
    ] == plaqs


def test_quotient_matches_naive_oracle_for_every_code_up_to_length_8():
    codes = [
        (length, words)
        for length in range(1, 9)
        for words in oracles.doubly_even_codes(length)
    ]
    assert len(codes) == 1107
    for length, words in codes:
        assert_matches_naive_quotient(length, words)


@pytest.mark.parametrize("n", range(1, 7))
def test_cube_matches_naive_oracle(n):
    assert_matches_naive_quotient(n, [0])


@settings(max_examples=10, deadline=None)
@given(
    st.integers(9, 12).flatmap(
        lambda length: st.tuples(
            st.just(length),
            st.lists(
                st.sets(st.integers(0, length - 1), min_size=4, max_size=8)
                .filter(lambda s: len(s) % 4 == 0),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
def test_quotient_matches_naive_oracle_at_lengths_9_to_12(case):
    # keep each drawn weight-4 or weight-8 word that leaves the span
    # doubly even
    length, supports = case
    gens = []
    for support in supports:
        word = sum(1 << i for i in support)
        if oracles.doubly_even(gens + [word]):
            gens.append(word)
    assert_matches_naive_quotient(length, oracles.xor_span(gens))


# Extended binary Golay code [24, 12, 8] as (I | B).
GOLAY_B = (
    "011111111111", "111011100010", "110111000101", "101110001011",
    "111100010110", "111000101101", "110001011011", "100010110111",
    "100101101110", "101011011100", "110110111000", "101101110001",
)
GOLAY = tuple(
    format(1 << (11 - i), "012b") + row for i, row in enumerate(GOLAY_B)
)


def test_golay_quotient_builds():
    a = build_chromotopology(12, GOLAY)
    assert a.length == 24 and a.code.k == 12
    assert min(w.bit_count()
               for w in oracles.xor_span(a.code.generators) if w) == 8
    assert len(a.nodes) == 4096 and len(a.edges) == 49152
    assert a.nodes == tuple(sorted(a.nodes))
    assert all(neighbor(a, e.u, e.color) == e.v for e in a.edges[:500])


def test_quotient_size_is_guarded_by_n():
    with pytest.raises(SizeGuardError):
        build_chromotopology(40, ())


def test_quotient_edge_count_formula():
    a = quotient31()
    n, k = 3, 1
    assert len(a.edges) == (n + k) * 2 ** (n - 1)


def test_neighbor_and_edge_lookup():
    a = square()
    assert neighbor(a, 0b00, 1) == 0b10
    assert neighbor(a, 0b00, 2) == 0b01
    e = edge_between(a, 0b10, 0b00, 1)
    assert e == Edge(0b00, 0b10, 1)


def test_weight_one_generator_rejected():
    with pytest.raises(InputError):
        build_chromotopology(0, ("1",))


def test_color_must_not_fix_a_node():
    # gluing by a weight-one word makes a color map a coset to itself;
    # the lenient quotient builder must still reject that
    from adinkra import LinearBinaryCode
    from adinkra.graph import build_quotient_skeleton

    with pytest.raises(InputError) as err:
        build_quotient_skeleton(1, LinearBinaryCode(2, (0b01,)))
    assert "fixes node" in str(err.value)


def test_bosons_are_even_weight():
    a = cube()
    assert boson_nodes(a) == (0b000, 0b011, 0b101, 0b110)
    assert fermion_nodes(a) == (0b001, 0b010, 0b100, 0b111)
    assert is_boson(0) and not is_boson(1)


def test_plaquette_trail_alternates_colors():
    a = cube()
    for p in plaquettes(a):
        ci, cj = p.colors
        assert ci < cj
        trail_colors = [e.color for e in p.edges]
        assert trail_colors == [ci, cj, ci, cj]
        # corners walk base -> +ci -> +cj -> +ci -> back
        assert len(set(p.corners)) == 4
        assert p.corners[0] == p.base == min(p.corners)


def test_plaquette_is_a_named_tuple_of_its_fields():
    for p in plaquettes(cube()):
        fields = (p.base, p.colors, p.corners, p.edges)
        # like Edge, a plaquette equals (and hashes as) the plain tuple
        assert p == fields and hash(p) == hash(fields)
        assert repr(p) == (
            f"Plaquette(base={p.base!r}, colors={p.colors!r}, "
            f"corners={p.corners!r}, edges={p.edges!r})"
        )
        # each step of the oracle's trail runs along its own edge
        for frm, to, e in oracles.plaquette_trail(p):
            assert (min(frm, to), max(frm, to)) == (e.u, e.v)


def test_plaquette_order_is_canonical():
    a = cube()
    keys = [(p.colors, p.base) for p in plaquettes(a)]
    assert keys == sorted(keys)


# ---------- verification ----------


def dashing_from_bits(a, bits):
    return {e: (1 if b else -1) for e, b in zip(a.edges, bits)}


def test_verify_odd_dashing_square():
    a = square()
    # one dashed edge: the single four-cycle has odd dash count
    good = a.with_dashing(dashing_from_bits(a, (1, 1, 1, 0)))
    assert verify_odd_dashing(good).ok
    # zero dashed edges: even count, must fail with the one plaquette named
    bad = a.with_dashing(dashing_from_bits(a, (1, 1, 1, 1)))
    report = verify_odd_dashing(bad)
    assert not report.ok
    assert len(report.violations) == 1


def test_single_flip_always_breaks_dashing():
    a = quotient31()
    # take any valid dashing (grown from an all-ones seed) and flip each bit
    from adinkra.baobab import reconstruct_dashing, skeleton_baobab_edges

    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: 1 for e in tree + cycles}
    signs, _ = reconstruct_dashing(a, seed)
    assert verify_odd_dashing(a.with_dashing(signs)).ok
    for edge in a.edges:
        flipped = dict(signs)
        flipped[edge] = -flipped[edge]
        assert not verify_odd_dashing(a.with_dashing(flipped)).ok


def test_verify_heights():
    a = square()
    assert verify_heights(a.with_heights(valise_heights(a))).ok
    assert verify_heights(a.with_heights(weight_heights(a))).ok
    bad = a.with_heights({0: 0, 1: 1, 2: 1, 3: 3})
    report = verify_heights(bad)
    assert not report.ok
    assert "violation" in report.summary()
    assert verify_heights(a.with_heights(valise_heights(a))).summary() == (
        "heights: ok"
    )


@pytest.mark.parametrize("height", ["1", 1.0, None, [1]])
def test_verify_heights_refuses_a_non_integer_height(height):
    a = square()
    with pytest.raises(InputError, match="height for '11' must be an integer"):
        verify_heights(a.with_heights({0: 0, 1: 1, 2: 1, 3: height}))


def test_verify_heights_accepts_bool_heights_as_from_json_does():
    a = square()
    heights = {0: False, 1: True, 2: True, 3: 2}
    assert verify_heights(a.with_heights(heights)).ok
    back = from_json(to_json(a.with_heights(heights)))
    assert back.heights == heights and verify_heights(back).ok


@pytest.mark.parametrize("sign", [True, 1.0, -1.0])
def test_verify_odd_dashing_refuses_a_non_integer_sign(sign):
    a = square()
    signs = dashing_from_bits(a, (1, 1, 1, 0))
    signs[a.edges[2]] = sign
    with pytest.raises(InputError, match=r"must be \+1 or -1"):
        verify_odd_dashing(a.with_dashing(signs))


def test_valise_heights_bosons_low():
    a = cube()
    h = valise_heights(a)
    assert all(h[b] == 0 for b in boson_nodes(a))
    assert all(h[f] == 1 for f in fermion_nodes(a))


def test_weight_heights_counts_bits():
    a = cube()
    assert weight_heights(a)[0b101] == 2
    with pytest.raises(InputError):
        weight_heights(quotient31())  # labels are cosets, weight is not


def test_normalize_heights_shifts_min_to_zero():
    assert normalize_heights({5: 3, 7: 4}) == {5: 0, 7: 1}


# ---------- JSON ----------


def full_square():
    a = square()
    return a.with_dashing(dashing_from_bits(a, (1, 1, 1, 0))).with_heights(
        valise_heights(a)
    )


def test_json_roundtrip_is_byte_identical():
    a = full_square()
    text = to_json(a)
    assert from_json(text) == a
    assert to_json(from_json(text)) == text
    assert text.endswith("\n")


def test_json_skeleton_has_null_fields():
    doc = json.loads(to_json(square()))
    assert all(row["dashed"] is None for row in doc["edges"])
    assert all(row["height"] is None for row in doc["nodes"])


def test_json_rejects_shuffled_edges():
    doc = json.loads(to_json(full_square()))
    doc["edges"] = list(reversed(doc["edges"]))
    with pytest.raises(InputError):
        from_json(json.dumps(doc))


def test_json_rejects_wrong_topology():
    doc = json.loads(to_json(full_square()))
    doc["edges"][0]["color"] = 2  # claim the wrong color
    with pytest.raises(InputError):
        from_json(json.dumps(doc))


def test_json_rejects_partial_dashing():
    doc = json.loads(to_json(full_square()))
    doc["edges"][0]["dashed"] = None  # others keep their flags
    with pytest.raises(InputError) as err:
        from_json(json.dumps(doc))
    assert "all edges or none" in str(err.value)
