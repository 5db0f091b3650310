"""The DXOR sweep over node-rank planes.

`extract_baobab` checks the arrows that its pins close to by the sweep
(`baobab._swept_up`) and runs the heap engine only when they disagree
with the heights.  The sweep's up planes must give the engine's and the
restart-scan oracle's heads, it must give up (None) exactly where the
engine contradicts or leaves an edge unknown, and every failing extract
must give the engine's exact error text and unresolved edges.
"""

import random

import pytest

import oracles
from test_baobab import (
    E8_CODE, odd_word_quotients, raised, structure_corpus, uppers)
from adinkra import (
    Adinkra,
    ContradictionError,
    InputError,
    InsufficientPinningError,
    build_chromotopology,
    choose_pinned_arrows,
    extract_baobab,
    reconstruct_dashing,
    skeleton_baobab_edges,
    valise_heights,
    weight_heights,
)
from adinkra import baobab
from adinkra.baobab import propagate_directions
from adinkra.errors import AdinkraError
from adinkra.graph import _rank_planes
from adinkra.quaternion import quaternion_skeleton

RUNGS = [(n, ()) for n in range(2, 9)] + [(3, ("1111",)), (4, E8_CODE)]


def engine_extract(adinkra):
    """`extract_baobab` with the sweep switched off: the heap engine
    alone, as before the sweep."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baobab, "_swept_up", lambda *args: None)
        return extract_baobab(adinkra)


def failure(fn, *args):
    """(type, text, plaquette, unresolved) of what `fn` raises, or its
    result."""
    try:
        return fn(*args)
    except AdinkraError as exc:
        return (type(exc), str(exc), getattr(exc, "plaquette", None),
                getattr(exc, "unresolved", None))


def swept_heads(skeleton, pinned):
    """The heads dict that the sweep's up planes spell out, or None."""
    up = baobab._swept_up(skeleton, pinned)
    if up is None:
        return None
    rank = dict(zip(skeleton.nodes, range(len(skeleton.nodes))))
    return {e: e.v if up[e.color] >> rank[e.u] & 1 else e.u
            for e in skeleton.edges}


def dashed(n, gens, seed=0):
    a = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(a)
    rng = random.Random(seed)
    signs, _ = reconstruct_dashing(
        a, {e: rng.randint(0, 1) for e in tree + cycles})
    return a, signs


def test_swept_heads_equal_the_engine_on_the_structure_corpus():
    # the cubes n1-n8, the 1107 doubly even codes with L <= 8, n3/1111,
    # e8 and RM(1,4), each from the pins of its valise and (k = 0)
    # weight heights; the restart-scan oracle on every graph of at most
    # 64 edges, where it takes a few ms
    swept = 0
    for a, profiles in structure_corpus():
        for h in profiles:
            pinned = choose_pinned_arrows(a.with_heights(h))
            got = swept_heads(a, pinned)
            swept += 1
            heads, _ = propagate_directions(a, pinned)
            assert got == heads == uppers(a, h)
            assert baobab._swept_up(a, pinned) == _rank_planes(a).rising(
                list(map(h.get, a.nodes)))
            if len(a.edges) <= 64:
                assert got == oracles.naive_propagate_directions(a, pinned)[0]
    assert swept > 1100


def test_partial_pin_sets_close_exactly_where_the_engine_does():
    # the selection's pins are minimal: each drawn part of them leaves
    # edges unknown, and only the whole set closes
    rng = random.Random(27)
    partial = closed = 0
    for n, gens in RUNGS:
        a, signs = dashed(n, gens, n)
        profiles = [valise_heights(a)] + ([] if gens else [weight_heights(a)])
        for h in profiles:
            pinned = list(choose_pinned_arrows(
                a.with_dashing(signs).with_heights(h)).items())
            parts = [dict(rng.sample(pinned, rng.randrange(len(pinned))))
                     for _ in range(6)]
            for part in parts + [dict(pinned)]:
                heads, _ = propagate_directions(a, part)
                got = swept_heads(a, part)
                if len(heads) < len(a.edges):
                    partial += 1
                    assert got is None
                else:
                    closed += 1
                    assert got == heads
    assert partial > 80 and closed


def test_a_contradicting_extra_pin_gives_up():
    for n, gens in RUNGS:
        a, signs = dashed(n, gens, n)
        h = valise_heights(a)
        pinned = choose_pinned_arrows(a.with_dashing(signs).with_heights(h))
        upper = uppers(a, h)
        for e in [e for e in a.edges if e not in pinned][-3:]:
            wrong = {**pinned, e: e.u if upper[e] == e.v else e.v}
            assert baobab._swept_up(a, wrong) is None
            with pytest.raises(ContradictionError):
                propagate_directions(a, wrong)


def every_pin_set(a):
    """Every assignment of no arrow, head u or head v to each edge."""
    sets = [{}]
    for e in a.edges:
        sets = [{**s, **pin} for s in sets for pin in ({}, {e: e.u}, {e: e.v})]
    return sets


def test_odd_word_quotients_never_close():
    # the quaternion skeleton and the quotient by 111 (6 edges) on all
    # 729 pin sets; the quotient by 1110 (16 edges) on 400 drawn ones.
    # They are their codes' quotients, so they have rank planes, but
    # no orientation satisfies DXOR on all their plaquettes: the sweep
    # contradicts or leaves edges unknown
    q111, q1110 = odd_word_quotients()
    rng = random.Random(1110)
    for a, sets in ((quaternion_skeleton(), every_pin_set(quaternion_skeleton())),
                    (q111, every_pin_set(q111)),
                    (q1110, [{e: rng.choice((e.u, e.v)) for e in
                              rng.sample(q1110.edges, rng.randrange(17))}
                             for _ in range(400)])):
        assert _rank_planes(a) is not None
        for pins in sets:
            assert baobab._swept_up(a, pins) is None


def test_a_graph_off_its_quotient_is_refused():
    # the cube n=4 with its node list reversed: not the node list of its
    # code's quotient, so neither the planes nor the engine read it
    a, signs = dashed(4, ())
    b = Adinkra(a.n, a.code, a.nodes[::-1], a.edges)
    refused = (InputError, "graph is not the quotient of its code",
               None, None)
    assert failure(_rank_planes, b) == refused
    pinned = choose_pinned_arrows(a.with_heights(weight_heights(a)))
    assert failure(baobab._swept_up, b, pinned) == refused
    assert failure(propagate_directions, b, pinned) == refused
    adk = b.with_dashing(signs).with_heights(weight_heights(a))
    assert failure(extract_baobab, adk) == refused
    assert failure(engine_extract, adk) == refused


def test_extract_gives_the_engine_result_or_error():
    rng = random.Random(8)
    for n, gens in RUNGS:
        a, signs = dashed(n, gens, n)
        adk = a.with_dashing(signs).with_heights(valise_heights(a))
        cases = [adk]
        for _ in range(3):
            cases.append(adk.with_heights(raised(a, adk.heights, rng, n)))
        # a bumped height and a flipped sign fail their checks
        x = rng.choice(a.nodes)
        cases.append(adk.with_heights({**adk.heights, x: adk.heights[x] + 2}))
        e = rng.choice(a.edges)
        cases.append(adk.with_dashing({**signs, e: -signs[e]}))
        for case in cases:
            assert failure(extract_baobab, case) == failure(engine_extract, case)


def test_extract_direction_errors_match_the_engine(monkeypatch):
    # pin sets the selection never makes: one pin dropped or reversed
    # leaves edges unknown, one wrong extra arrow contradicts, and the
    # pins of the heights turned upside down close to every arrow
    # reversed, which disagrees with the heights.  Extract takes its pins
    # from `_pinned_arrows`, on the heights' up planes that it reads once
    choose = baobab.choose_pinned_arrows
    pinned_arrows = baobab._pinned_arrows
    kinds = []
    for n, gens in RUNGS:
        a, signs = dashed(n, gens, n)
        for h in [valise_heights(a)] + ([] if gens else [weight_heights(a)]):
            adk = a.with_dashing(signs).with_heights(h)
            pins = choose(adk)
            first = next(iter(pins))
            extra = [e for e in a.edges if e not in pins][-1]
            flipped = choose(adk.with_heights({x: -v for x, v in h.items()}))
            for bad in ({e: v for e, v in pins.items() if e != first},
                        {**pins, first: first.u + first.v - pins[first]},
                        {**pins, extra: min(extra.u, extra.v, key=h.get)},
                        flipped):
                monkeypatch.setattr(baobab, "_pinned_arrows",
                                    lambda *_, bad=bad: dict(bad))
                got = failure(extract_baobab, adk)
                assert got == failure(engine_extract, adk)
                kinds.append(got[:2])
            assert got[1].startswith(
                "propagated direction disagrees with the heights at ")
            monkeypatch.setattr(baobab, "_pinned_arrows", pinned_arrows)
    assert {InsufficientPinningError, ContradictionError} <= {
        kind for kind, _ in kinds}


def test_a_valid_extract_calls_no_dxor_rule(monkeypatch):
    calls = []
    rule = baobab._dxor_rule
    monkeypatch.setattr(baobab, "_dxor_rule",
                        lambda *args: calls.append(1) or rule(*args))
    for n, gens in RUNGS:
        a, signs = dashed(n, gens, n)
        for h in [valise_heights(a)] + ([] if gens else [weight_heights(a)]):
            bb = extract_baobab(a.with_dashing(signs).with_heights(h))
            assert bb.pinned
    assert calls == []
    # the engine path, for contrast, calls it
    engine_extract(a.with_dashing(signs).with_heights(valise_heights(a)))
    assert calls
