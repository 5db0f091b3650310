"""Each graph builds its plaquette table once, and every adinkra on the
same graph reads that one table: the plaquettes, the integer id tables
propagation reads and the compiled NDXOR program."""

import random
import sys
import weakref
from copy import deepcopy
from dataclasses import replace

import pytest

import oracles
from reorder import reordered
from test_baobab import E8_CODE, RM14
from adinkra import (
    adinkra_to_gamma,
    build_chromotopology,
    check_garden,
    choose_pinned_arrows,
    count_valid_dashings,
    extract_baobab,
    from_json,
    plaquettes,
    reconstruct_adinkra,
    reconstruct_dashing,
    skeleton_baobab_edges,
    skeleton_tree,
    to_json,
    valise_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra import baobab, graph
from adinkra.baobab import propagate_dashing, propagate_directions
from adinkra.codec import (
    DASHING,
    Family,
    encode,
    family_code,
    family_skeleton,
    message_length,
    syndrome,
)

RUNGS = [(3, (), valise_heights), (4, (), weight_heights),
         (3, ("1111",), valise_heights), (4, E8_CODE, valise_heights)]


@pytest.fixture
def builds(monkeypatch):
    """The adinkras the plaquette builder ran for, in call order."""
    calls = []
    real = graph._build_plaquettes

    def counted(adinkra):
        calls.append(adinkra)
        return real(adinkra)

    monkeypatch.setattr(graph, "_build_plaquettes", counted)
    return calls


ID_FIELDS = ("index", "quads", "incidence", "program")


def table_fields(skeleton):
    t = skeleton._table
    return [t.plaquettes] + [getattr(t, f) for f in ID_FIELDS]


def ids_unbuilt(skeleton) -> bool:
    return all(getattr(skeleton._table, f) is None for f in ID_FIELDS)


@pytest.fixture
def id_builds(monkeypatch):
    """("ids", plaquettes) per id-table build and ("program", skeleton)
    per NDXOR compile, in call order."""
    calls = []
    fill, compile_ = graph._PlaquetteTable.fill_ids, baobab._compile_ndxor

    def counted_fill(table, edges):
        calls.append(("ids", table.plaquettes))
        return fill(table, edges)

    def counted_compile(skeleton, table):
        calls.append(("program", skeleton))
        return compile_(skeleton, table)

    monkeypatch.setattr(graph._PlaquetteTable, "fill_ids", counted_fill)
    monkeypatch.setattr(baobab, "_compile_ndxor", counted_compile)
    return calls


def dashed(skeleton, heights):
    tree, cycles, _ = skeleton_baobab_edges(skeleton)
    rng = random.Random(len(skeleton.edges))
    signs, _ = reconstruct_dashing(
        skeleton, {e: rng.randint(0, 1) for e in tree + cycles})
    return skeleton.with_dashing(signs).with_heights(heights(skeleton))


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_round_trip_builds_the_table_once(builds, n, gens, heights):
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, heights)
    assert verify_odd_dashing(adk).ok
    assert check_garden(adinkra_to_gamma(adk)).ok
    bb = extract_baobab(adk)
    rebuilt, _, _ = reconstruct_adinkra(sk, bb)
    assert rebuilt == adk
    assert verify_odd_dashing(rebuilt).ok
    assert plaquettes(rebuilt.skeleton()) is plaquettes(sk)
    count_valid_dashings(sk)
    assert len(builds) == 1 and builds[0] is sk


def test_from_json_shares_its_own_table(builds):
    adk = dashed(build_chromotopology(3, ("1111",)), valise_heights)
    builds.clear()
    back = from_json(to_json(adk))
    assert back == adk and back._table is not adk._table
    assert verify_odd_dashing(back).ok  # decided on planes: no table
    assert not builds
    assert plaquettes(back) is plaquettes(back.skeleton())
    assert len(builds) == 1 and builds[0] is back


@pytest.mark.parametrize("n, gens, heights", [
    (8, (), valise_heights), (8, (), weight_heights),
    (3, ("1111",), valise_heights), (4, E8_CODE, valise_heights),
    (11, RM14, valise_heights), (1, (), valise_heights),
    (1, (), weight_heights)])
def test_a_valid_extract_builds_no_table(n, gens, heights):
    # extraction decides the dashing on the rank planes and reads the
    # canonical tree: a fresh graph gets no plaquettes, no id tables and
    # no NDXOR program from it
    adk = dashed(build_chromotopology(n, gens), heights)
    back = from_json(to_json(adk))
    bb = extract_baobab(back)
    assert back._table.plaquettes is None and ids_unbuilt(back)
    assert reconstruct_adinkra(back.skeleton(), bb)[0] == adk


def test_each_skeleton_of_a_code_builds_its_own_table(builds):
    first = build_chromotopology(3, ())
    second = build_chromotopology(3, ())
    assert first == second
    assert plaquettes(first) == plaquettes(second)
    assert plaquettes(first) is not plaquettes(second)
    assert [b is first for b in builds] == [True, False]
    assert builds[1] is second


def test_replace_starts_with_an_empty_table(builds):
    adk = dashed(build_chromotopology(3, ()), valise_heights)
    plaquettes(adk)
    assert adk._table.program is not None
    copy = replace(adk, heights=None)
    assert copy._table is not adk._table
    assert copy._table.plaquettes is None and ids_unbuilt(copy)
    assert plaquettes(copy) == plaquettes(adk)
    assert len(builds) == 2


@pytest.fixture
def quotient_builds(monkeypatch):
    """The n of each `_quotient_nodes_edges` call, in call order: one per
    builder call, and one per check of a graph no builder made."""
    calls = []
    real = graph._quotient_nodes_edges

    def counted(n, code):
        calls.append(n)
        return real(n, code)

    monkeypatch.setattr(graph, "_quotient_nodes_edges", counted)
    return calls


def read_everything(adk):
    """Every reader of the graph's structure, once each, on a valid
    adinkra and on its skeleton."""
    sk = adk.skeleton()
    assert verify_odd_dashing(adk).ok
    assert check_garden(adinkra_to_gamma(adk, validate=False)).ok
    bb = extract_baobab(adk)
    assert reconstruct_adinkra(sk, bb)[0] == adk
    assert propagate_directions(sk, choose_pinned_arrows(adk))[0]
    assert propagate_dashing(sk, bb.bits)[0]
    plaquettes(sk)
    count_valid_dashings(sk)


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_each_table_checks_its_graph_once(quotient_builds, n, gens, heights):
    adk = dashed(build_chromotopology(n, gens), heights)
    read_everything(adk)
    assert quotient_builds == [n]  # the builder's, read as a verdict
    back = from_json(to_json(adk))
    read_everything(back)
    read_everything(back.with_dashing(back.dashing))
    assert quotient_builds == [n] * 2  # from_json's own build
    copy = replace(adk)
    read_everything(copy)
    read_everything(copy.with_heights(copy.heights))
    assert quotient_builds == [n] * 3  # the copy, checked once


def test_table_is_not_part_of_the_value():
    adk = dashed(build_chromotopology(2, ()), valise_heights)
    plaquettes(adk)
    assert "_table" not in repr(adk)
    assert adk == replace(adk)
    assert "_table" not in to_json(adk)


def test_incidence_is_built_on_first_propagation():
    sk = build_chromotopology(3, ("1111",))
    plaquettes(sk)
    tree, cycles, _ = skeleton_baobab_edges(sk)
    back = from_json(to_json(sk))
    assert ids_unbuilt(sk) and ids_unbuilt(back)
    propagate_dashing(sk, {e: 1 for e in tree + cycles})
    t = sk._table
    assert t.index == {e: i for i, e in enumerate(sk.edges)}
    plaqs = plaquettes(sk)
    # per plaquette, the positions of its edges in `skeleton.edges`
    assert t.quads == [tuple(sk.edges.index(e) for e in p.edges)
                       for p in plaqs]
    assert len(t.incidence) == len(sk.edges)
    for i, e in enumerate(sk.edges):
        assert sorted(sum(t.incidence[i], [])) == [
            j for j, p in enumerate(plaqs) if e in p.edges]
    assert ids_unbuilt(back)


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_trails_are_built_once_per_table(id_builds, n, gens, heights):
    # the trail table is gone: the DXOR rule reads corners and edge ids,
    # and a plaquette has no trail method left to call (the oracles build
    # trails with `oracles.plaquette_trail`); the id tables and the NDXOR
    # program are built once per table over a round trip
    assert not hasattr(graph.Plaquette, "trail")
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, heights)
    assert id_builds == [("ids", plaquettes(sk)), ("program", sk)]
    fields = table_fields(sk)
    rebuilt, _, _ = reconstruct_adinkra(sk, extract_baobab(adk))
    assert rebuilt == adk
    propagate_directions(adk, choose_pinned_arrows(adk))
    tree, cycles, _ = skeleton_baobab_edges(sk)
    propagate_dashing(rebuilt, {e: 1 for e in tree})
    assert not hasattr(sk._table, "trails")
    assert len(id_builds) == 2
    for table in (adk._table, rebuilt._table):
        assert all(f is g for f, g in zip(fields, table_fields(sk)))
        assert table is sk._table


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_tree_is_built_once_per_table(monkeypatch, n, gens, heights):
    # the canonical tree is kept on the table: the caller's
    # skeleton_baobab_edges, _compile_ndxor and _validate_baobab_fit
    # (through reconstruct_adinkra) read one tuple object
    reads = []
    real = baobab.skeleton_baobab_edges

    def counted(skeleton):
        out = real(skeleton)
        reads.append((sys._getframe(1).f_code.co_name, out[0]))
        return out

    monkeypatch.setattr(baobab, "skeleton_baobab_edges", counted)
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, heights)
    rebuilt, _, _ = reconstruct_adinkra(sk, extract_baobab(adk))
    assert rebuilt == adk
    tree = skeleton_tree(sk)
    assert sk._table.tree is tree
    assert {caller for caller, _ in reads} == {
        "_compile_ndxor", "_validate_baobab_fit", "extract_baobab"}
    assert all(t is tree for _, t in reads)
    copy = replace(sk)
    assert skeleton_tree(copy) == tree and skeleton_tree(copy) is not tree
    assert skeleton_tree(copy) is copy._table.tree


@pytest.mark.parametrize("first", ["plaquettes", "rank planes"])
@pytest.mark.parametrize("n, gens", [(1, ()), (2, ()), (3, ("1111",)),
                                     (4, E8_CODE), (11, RM14)])
def test_edges_over_ranks_are_laid_out_once_for_both_builders(first, n, gens):
    sk = build_chromotopology(n, gens)
    table = sk._table
    builders = [plaquettes, graph._rank_planes]
    if first == "rank planes":
        builders.reverse()
    builders[0](sk)
    layout = table.layout
    # the plaquettes read the layout, not the planes built on it
    assert layout is not None and (table.ranks is None) == (
        first == "plaquettes")
    builders[1](sk)
    assert table.layout is layout
    ranks = graph._rank_planes(sk)
    # at[c][r] is the color-c edge at rank r, by either of its ends
    deltas, at = layout
    rank = {x: r for r, x in enumerate(sk.nodes)}
    want = [[None] * len(sk.nodes) for _ in deltas]
    for i, (u, v, c) in enumerate(sk.edges):
        want[c][rank[u]] = want[c][rank[v]] = i
        assert rank[v] == rank[u] ^ deltas[c]
    assert [list(ids) for ids in at[1:]] == want[1:]
    # and the planes pick the edge of digit (c, r) at c * size - 1 - r
    digits = ranks.edge_at(range(len(sk.edges)))
    assert list(digits) == [i for ids in want[1:] for i in reversed(ids)]


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_incidence_files_each_plaquette_by_its_landing_end(n, gens, heights):
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, heights)
    incidence = sk._table.incidence
    rebuilt, _, _ = reconstruct_adinkra(sk, extract_baobab(adk))
    assert rebuilt == adk
    want = [([], []) for _ in sk.edges]
    for j, p in enumerate(plaquettes(sk)):
        # the oracle trail's step along each edge lands on its u or its v
        for _, to, e in oracles.plaquette_trail(p):
            want[sk.edges.index(e)][to == e.v].append(j)
    assert incidence == want
    propagate_directions(adk, choose_pinned_arrows(adk))
    assert adk._table.incidence is incidence


def test_program_is_compiled_once_for_the_baobab_slots(id_builds):
    sk = build_chromotopology(4, ())
    tree, cycles, _ = skeleton_baobab_edges(sk)
    slots = {e: 1 for e in tree + cycles}
    # a known set of another size never compiles; one of the slot size
    # compiles once, and later calls of that size reuse the result
    propagate_dashing(sk, dict(list(slots.items())[:-1]))
    assert [kind for kind, _ in id_builds] == ["ids"]
    other = dict(list(slots.items())[1:])
    other[next(e for e in sk.edges if e not in slots)] = 0
    propagate_dashing(sk, other)
    program = sk._table.program
    assert [kind for kind, _ in id_builds] == ["ids", "program"]
    reconstruct_dashing(sk, slots)
    assert sk._table.program is program and len(id_builds) == 2
    index = sk._table.index
    assert program.slots == {index[e] for e in slots}
    assert len(program.order) == len(program.flat) == (
        len(sk.edges) - len(slots))
    # the fired plaquette writes its one unknown edge from the other three
    for j, (out, *ins) in zip(program.order, program.flat):
        assert sorted([out] + ins) == sorted(sk._table.quads[j])


def test_encode_compiles_the_family_skeleton_program_once(id_builds):
    family = Family(3, ("1111",), DASHING)
    skeleton = family_skeleton(family)
    before = len(id_builds)
    for m in range(4):
        encode([m >> i & 1 for i in range(message_length(family))], family)
    assert [kind for kind, _ in id_builds[before:]] in (
        [], ["ids", "program"])
    assert skeleton._table.program is not None


def test_dropped_skeleton_frees_its_table():
    sk = build_chromotopology(4, ())
    tree, cycles, _ = skeleton_baobab_edges(sk)
    propagate_dashing(sk, {e: 1 for e in tree + cycles})
    assert sk._table.program is not None
    ref = weakref.ref(sk._table)
    del sk
    assert ref() is None


@pytest.mark.parametrize("n, gens", [(3, ("1111",)), (4, E8_CODE)])
def test_custom_order_matches_restart_scan(builds, n, gens):
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, valise_heights)
    tree, cycles, _ = skeleton_baobab_edges(sk)
    seed = {e: 1 if adk.dashing[e] == 1 else 0 for e in tree + cycles}
    pinned = choose_pinned_arrows(adk)
    rng = random.Random(n)
    plaqs = plaquettes(sk)
    fresh = build_chromotopology(n, gens)
    for order in (tuple(reversed(plaqs)),
                  tuple(rng.sample(plaqs, len(plaqs)))):
        for ours, theirs, given in (
            (propagate_dashing, oracles.naive_propagate_dashing, seed),
            (propagate_directions, oracles.naive_propagate_directions,
             pinned),
        ):
            got, trace = ours(reordered(fresh, order), given)
            want, want_trace = theirs(fresh, given, _order=order)
            assert got == want
            assert trace.to_jsonl() == want_trace.to_jsonl()
            # a reordered copy of a skeleton whose table is built gives
            # the same and leaves every field of that table as it was
            ours(sk, given)
            fields = table_fields(sk)
            copies = deepcopy(fields)
            assert ours(reordered(sk, order), given) == (got, trace)
            assert all(f is g for f, g in zip(fields, table_fields(sk)))
            assert fields == copies
    # the reordered copies build their own id tables, compile no
    # program, build no plaquettes and leave the skeletons' tables alone
    assert fresh._table.plaquettes is None and ids_unbuilt(fresh)
    assert len(builds) == 1 and builds[0] is sk


def test_codec_reads_the_family_skeleton_table(builds):
    # syndromes and the dashing code read the one table
    family = Family(3, ("1111",), DASHING)
    skeleton = family_skeleton(family)
    block = encode((1,) * message_length(family), family).flip([0])
    assert len(syndrome(block).violated) == skeleton.length - 1
    assert family_code.__wrapped__(family).dim == message_length(family)
    assert len(builds) <= 1
