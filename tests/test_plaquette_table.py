"""Each graph builds its plaquette table once, and every adinkra on the
same graph reads that one table."""

import random
import weakref
from dataclasses import replace

import pytest

import oracles
from adinkra import (
    adinkra_to_gamma,
    build_chromotopology,
    check_garden,
    choose_pinned_arrows,
    count_valid_dashings,
    extract_baobab,
    from_json,
    plaquette_masks,
    plaquettes,
    reconstruct_adinkra,
    reconstruct_dashing,
    skeleton_baobab_edges,
    to_json,
    valise_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra import graph
from adinkra.baobab import propagate_dashing, propagate_directions
from adinkra.codec import DASHING, Family, _parity_checks, family_skeleton

E8_CODE = ("11110000", "00001111", "11001100", "10101010")
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


def table_fields(skeleton):
    t = skeleton._table
    return [t.plaquettes, t.trails, t.incidence, t.heads]


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
    assert len(plaquette_masks(adk)) == len(plaquettes(adk))
    count_valid_dashings(sk)
    assert len(builds) == 1 and builds[0] is sk


def test_from_json_shares_its_own_table(builds):
    adk = dashed(build_chromotopology(3, ("1111",)), valise_heights)
    builds.clear()
    back = from_json(to_json(adk))
    assert back == adk and back._table is not adk._table
    assert verify_odd_dashing(back).ok
    assert plaquettes(back.skeleton()) is plaquettes(back)
    assert len(builds) == 1 and builds[0] is back


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
    copy = replace(adk, heights=None)
    assert copy._table is not adk._table
    assert copy._table.plaquettes is None and copy._table.incidence is None
    assert copy._table.trails is None and copy._table.heads is None
    assert plaquettes(copy) == plaquettes(adk)
    assert len(builds) == 2


def test_table_is_not_part_of_the_value():
    adk = dashed(build_chromotopology(2, ()), valise_heights)
    plaquettes(adk)
    assert "_table" not in repr(adk)
    assert adk == replace(adk)
    assert "_table" not in to_json(adk)


def test_incidence_is_built_on_first_propagation():
    sk = build_chromotopology(3, ("1111",))
    plaquettes(sk)
    assert sk._table.incidence is None
    tree, cycles, _ = skeleton_baobab_edges(sk)
    propagate_dashing(sk, {e: 1 for e in tree + cycles})
    incidence = sk._table.incidence
    assert set(incidence) == set(sk.edges)
    assert all(isinstance(ids, tuple) for ids in incidence.values())
    plaqs = plaquettes(sk)
    for e, ids in incidence.items():
        assert ids == tuple(i for i, p in enumerate(plaqs) if e in p.edges)


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_trails_are_built_once_per_table(monkeypatch, n, gens, heights):
    calls = []
    real = graph.Plaquette.trail

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(graph.Plaquette, "trail", counted)
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, heights)
    tree, cycles, _ = skeleton_baobab_edges(sk)
    propagate_dashing(sk, {e: 1 for e in tree + cycles})
    assert sk._table.trails is None and not calls
    rebuilt, _, _ = reconstruct_adinkra(sk, extract_baobab(adk))
    assert rebuilt == adk
    trails = sk._table.trails
    assert trails == tuple(real(p) for p in plaquettes(sk))
    assert calls == list(plaquettes(sk))
    propagate_directions(adk, choose_pinned_arrows(adk))
    assert adk._table.trails is trails and len(calls) == len(trails)


@pytest.mark.parametrize("n, gens, heights", RUNGS)
def test_heads_are_built_once_beside_the_incidence(n, gens, heights):
    sk = build_chromotopology(n, gens)
    adk = dashed(sk, heights)
    assert sk._table.heads is None
    rebuilt, _, _ = reconstruct_adinkra(sk, extract_baobab(adk))
    assert rebuilt == adk
    heads, incidence = sk._table.heads, sk._table.incidence
    assert set(heads) == set(incidence) == set(sk.edges)
    trails = sk._table.trails
    for e, ids in incidence.items():
        # one tuple per edge: the node each trail through e steps onto
        assert isinstance(heads[e], tuple)
        assert heads[e] == tuple(to for i in ids
                                 for _, to, f in trails[i] if f == e)
    propagate_directions(adk, choose_pinned_arrows(adk))
    assert adk._table.heads is heads


def test_dropped_skeleton_frees_its_table():
    sk = build_chromotopology(4, ())
    tree, cycles, _ = skeleton_baobab_edges(sk)
    propagate_dashing(sk, {e: 1 for e in tree + cycles})
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
            got, trace = ours(fresh, given, _order=order)
            want, want_trace = theirs(fresh, given, _order=order)
            assert got == want
            assert trace.to_jsonl() == want_trace.to_jsonl()
            # on a skeleton whose table is built, a custom order gives
            # the same and leaves every field of the table as it was
            ours(sk, given)
            fields = table_fields(sk)
            # the tuples are immutable; copy the two dicts
            copies = [dict(f) if isinstance(f, dict) else f for f in fields]
            assert ours(sk, given, _order=order) == (got, trace)
            assert all(f is g for f, g in zip(fields, table_fields(sk)))
            assert fields == copies
    # a custom order builds its own incidence, trails and heads and
    # leaves the table alone
    assert fresh._table.plaquettes is None and fresh._table.incidence is None
    assert fresh._table.trails is None and fresh._table.heads is None
    assert len(builds) == 1 and builds[0] is sk


def test_parity_checks_read_the_family_skeleton_table(builds):
    family = Family(3, ("1111",), DASHING)
    checks = _parity_checks.__wrapped__(family)
    skeleton = family_skeleton(family)
    assert len(checks) == len(plaquettes(skeleton))
    assert len(builds) <= 1
