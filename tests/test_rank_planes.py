"""The node-rank planes.  `verify_odd_dashing`, `adinkra_to_gamma` and
`check_garden` decide on one int per color over the node ranks; they
must equal the plaquette walk and the Monomial-object oracles.  Every
graph that is not its code's quotient is refused by every reader with
one `InputError`."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adinkra import (
    Adinkra,
    Edge,
    GammaSet,
    adinkra_to_gamma,
    build_chromotopology,
    build_quotient_skeleton,
    check_block_transpose,
    check_garden,
    choose_pinned_arrows,
    extract_baobab,
    from_json,
    plaquettes,
    reconstruct_dashing,
    skeleton_baobab_edges,
    skeleton_tree,
    to_json,
    valise_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra import algebra, graph
from adinkra.baobab import propagate_dashing, propagate_directions
from adinkra.codes import LinearBinaryCode
from adinkra.errors import InputError
from adinkra.graph import checked_heights, checked_signs

E8_CODE = ("11110000", "00001111", "11001100", "10101010")
RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")  # RM(1,4), doubly even
FAMILIES = [(n, ()) for n in range(2, 9)] + [(3, ("1111",)), (4, E8_CODE)]


def valid(n, gens):
    """A random valid dashing on a fresh skeleton of the family."""
    sk = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(sk)
    rng = random.Random(n * 10 + len(gens))
    signs, _ = reconstruct_dashing(
        sk, {e: rng.randint(0, 1) for e in tree + cycles})
    return sk.with_dashing(signs)


def variants(adk, rng):
    """Valise heights and, for k = 0, weight heights, each with 0, 1 or
    2 signs flipped, and each with one node's height bumped."""
    profiles = [valise_heights(adk)]
    if not adk.code.k:
        profiles.append(weight_heights(adk))
    for heights in profiles:
        for flips in (0, 1, 2):
            dashing = dict(adk.dashing)
            for e in rng.sample(adk.edges, flips):
                dashing[e] = -dashing[e]
            yield flips, adk.with_dashing(dashing).with_heights(heights)
        x = rng.choice(adk.nodes)
        yield "bump", adk.with_heights({**heights, x: heights[x] + 1})


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # whatever it is, a KeyError too
        return type(exc), str(exc)


def rows(gammas):
    """Γ matrices as their rows in insertion order, entries by repr."""
    return ([(c, m.dim, [[(col, repr(x)) for col, x in row.items()]
                         for row in m._rows])
             for c, m in gammas.matrices.items()],
            gammas.basis, gammas.boson_count)


def naive_gardens(gammas):
    """`oracles.naive_check_garden` with stop_early True and False; a
    set that holds is not walked twice."""
    full = oracles.naive_check_garden(gammas, stop_early=False)
    early = full if full.ok else oracles.naive_check_garden(gammas)
    return {True: early, False: full}


def assert_planes_match_oracles(adk, variant):
    assert verify_odd_dashing(adk) == oracles.naive_verify_odd_dashing(adk)
    want = oracles.naive_adinkra_to_gamma(adk)
    gardens = naive_gardens(want)
    gammas = adinkra_to_gamma(adk, validate=False)
    assert "_planes" in gammas.__dict__
    for stop_early in (True, False):
        assert check_garden(gammas, stop_early) == gardens[stop_early]
    if variant == 0:  # valid: decided without building the matrices
        assert gardens[False].ok and "matrices" not in gammas.__dict__
    assert rows(gammas) == rows(want)
    assert gammas == want


@pytest.mark.parametrize("n, gens", FAMILIES)
def test_planes_match_the_oracles(n, gens):
    rng = random.Random(n)
    for variant, adk in variants(valid(n, gens), rng):
        assert_planes_match_oracles(adk, variant)


def test_planes_match_the_oracles_at_l16():
    # each failing case walks all 136 pairs of 2048 rows in the oracle
    rng = random.Random(16)
    for variant, adk in variants(valid(11, RM14), rng):
        if variant != 2:
            assert_planes_match_oracles(adk, variant)


@pytest.mark.parametrize("n, gens", [(2, ()), (5, ()), (3, ("1111",)),
                                     (4, E8_CODE)])
def test_delta_swaps_move_every_bit_to_its_translate(n, gens):
    sk = build_chromotopology(n, gens)
    ranks = graph._rank_planes(sk)
    size = ranks.size
    rank = {x: r for r, x in enumerate(sk.nodes)}
    steps = graph._color_steps(sk.code)
    assert ranks.deltas[1:] == tuple(rank[d] for d in steps[1:])
    rng = random.Random(n)
    for lanes in (1, 3):
        for c, swaps in enumerate(ranks.swaps(lanes)):
            word = rng.getrandbits(lanes * size)
            moved = graph._moved(word, swaps)
            for lane in range(lanes):
                for r in range(size):
                    to = lane * size + (r ^ ranks.deltas[c])
                    assert moved >> to & 1 == word >> lane * size + r & 1
    # digit k of color c reads the edge at rank size - 1 - k, whose other
    # end `across` names
    at, across = ranks.edge_at(range(len(sk.edges))), ranks.across(range(size))
    for k, (i, other) in enumerate(zip(at, across)):
        c, r = k // size + 1, size - 1 - k % size
        e = sk.edges[i]
        assert e.color == c and {rank[e.u], rank[e.v]} == {r, other}


def test_a_fresh_valid_adinkra_is_checked_without_its_plaquette_table():
    for n, gens in ((8, ()), (4, E8_CODE), (11, RM14)):
        adk = valid(n, gens)
        back = from_json(to_json(adk.with_heights(valise_heights(adk))))
        assert verify_odd_dashing(back).ok
        gammas = adinkra_to_gamma(back)
        assert check_garden(gammas, stop_early=False).ok
        assert back._table.plaquettes is None
        assert "matrices" not in gammas.__dict__
    # a failing pair walks the plaquettes for its report
    e = back.edges[len(back.edges) // 3]
    flipped = back.with_dashing({**back.dashing, e: -back.dashing[e]})
    report = verify_odd_dashing(flipped)
    assert len(report.violations) == back.length - 1
    assert back._table.plaquettes is not None


def test_a_failing_pair_builds_only_its_own_matrices(monkeypatch):
    # one flipped sign breaks every pair with its edge's color; the
    # first such pair builds its two matrices, not the whole view, and
    # a full check builds each color once
    built = []
    real = algebra._GammaPlanes.matrices
    monkeypatch.setattr(
        algebra._GammaPlanes, "matrices",
        lambda self, basis, colors=None: built.append(colors) or real(
            self, basis, colors))
    adk = valid(4, E8_CODE)
    adk = adk.with_heights(valise_heights(adk))
    e = adk.edges[5]
    bad = adk.with_dashing({**adk.dashing, e: -adk.dashing[e]})
    for stop_early in (True, False):
        built.clear()
        gammas = adinkra_to_gamma(bad, validate=False)
        report = check_garden(gammas, stop_early)
        assert not report.ok and "matrices" not in gammas.__dict__
        if stop_early:
            assert len(built) == 2 and e.color in built[0] + built[1]
        else:
            assert sorted(built) == [(c,) for c in adk.colors()]
        eager = GammaSet(gammas.matrices, gammas.basis, gammas.boson_count)
        assert report == check_garden(eager, stop_early)
        assert report == naive_gardens(eager)[stop_early]


def test_plane_backed_sets_copy_and_pickle_as_their_matrices():
    adk = valid(3, ("1111",))
    adk = adk.with_heights(valise_heights(adk))
    gammas = adinkra_to_gamma(adk)
    want = oracles.naive_adinkra_to_gamma(adk)
    for other in (pickle.loads(pickle.dumps(gammas)), copy.copy(gammas),
                  copy.deepcopy(gammas)):
        assert other == gammas == want
        assert "_planes" in other.__dict__  # a clone keeps the planes
        assert check_garden(other) == check_garden(gammas)
    assert repr(gammas) == repr(want)
    assert check_block_transpose(gammas) == check_block_transpose(want)
    with pytest.raises(AttributeError, match="no attribute 'planes'"):
        gammas.planes


# ---------- adinkras off their code's quotient are refused ----------

SMALL = [(2, ()), (3, ()), (3, ("1111",)), (4, ())]
BASES = {f: valid(*f) for f in SMALL}
OFF_QUOTIENT = ("another node", "another color", "missing", "repeated",
                "relabeled", "reversed", "color type")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_any_planes_decide_each_pair_as_their_matrices_do(data):
    # a valid Γ's planes with some bits flipped, so phases differ per
    # color and some pairs hold, and some arrows reversed, which no
    # heights give: a plaquette then rises twice one way and falls twice
    # the other; each pair's verdict must be that of the exact
    # anticommutator of the matrices the planes stand for
    n, gens = data.draw(st.sampled_from(SMALL + [(4, E8_CODE)]))
    adk = valid(n, gens)
    base = adinkra_to_gamma(adk.with_heights(valise_heights(adk)))
    planes = base.__dict__["_planes"]
    packed = list(planes.packed)
    size = planes.ranks.size
    colors = st.integers(1, len(packed) - 1)
    for _ in range(data.draw(st.integers(0, 6))):
        packed[data.draw(colors)] ^= 1 << data.draw(st.integers(0, 3 * size - 1))
    for _ in range(data.draw(st.integers(0, 2))):
        c, r = data.draw(colors), data.draw(st.integers(0, size - 1))
        packed[c] ^= (1 << r | 1 << (r ^ planes.ranks.deltas[c])) << 2 * size
    gammas = object.__new__(GammaSet)
    gammas.__dict__.update(basis=base.basis, boson_count=base.boson_count,
                           _planes=planes._replace(packed=packed))
    want = GammaSet(gammas.matrices, base.basis, base.boson_count)
    for stop_early in (True, False):
        assert outcome(check_garden, gammas, stop_early) == outcome(
            oracles.naive_check_garden, want, stop_early)


@st.composite
def off_plane_adinkras(draw):
    """A valid small adinkra with one thing changed: an edge to another
    node or of another color, a missing edge row or one in place of
    another, two node labels swapped in place, the node list reversed,
    a color 1 written as 1.0 or True, a sign that is no int ±1, a
    missing, float or bool height, or a graph with two colors that span
    no four-cycle."""
    family = draw(st.sampled_from(SMALL))
    kinds = OFF_QUOTIENT + ("span", "sign", "height")
    if family == (2, ()):  # one node of the square is off its color steps
        kinds = tuple(k for k in kinds if k != "relabeled")
    kind = draw(st.sampled_from(kinds))
    if kind == "span":  # d_1 = d_2: colors 1 and 2 move x to one node
        sk = build_quotient_skeleton(2, LinearBinaryCode.from_strings(["110"]))
        dashing = {e: draw(st.sampled_from((1, -1))) for e in sk.edges}
        return kind, sk.with_dashing(dashing).with_heights(valise_heights(sk))
    base = BASES[family]
    edges, dashing = list(base.edges), dict(base.dashing)
    heights = valise_heights(base)
    i = draw(st.integers(0, len(edges) - 1))
    e = edges[i]
    if kind == "another node":
        w = draw(st.sampled_from([x for x in base.nodes if x not in e[:2]]))
        edges[i] = Edge(min(e.u, w), max(e.u, w), e.color)
        dashing[edges[i]] = dashing[e]
    elif kind == "another color":
        c = draw(st.sampled_from([c for c in range(base.length + 2)
                                  if c != e.color]))
        edges[i] = Edge(e.u, e.v, c)
        dashing[edges[i]] = dashing[e]
    elif kind == "missing":
        del edges[i]
    elif kind == "repeated":  # in place of another edge of its color
        j = draw(st.sampled_from([j for j, f in enumerate(edges)
                                  if f.color == e.color and j != i]))
        edges[j] = e
    elif kind == "relabeled":  # two nodes swap labels, ranks kept
        steps = graph._color_steps(base.code)
        x, y = draw(st.lists(st.sampled_from(
            [x for x in base.nodes if x not in steps]),
            min_size=2, max_size=2, unique=True))
        swap = {x: y, y: x}
        label = lambda z: swap.get(z, z)  # noqa: E731
        edges = [Edge(*sorted((label(f.u), label(f.v))), f.color)
                 for f in edges]
        dashing = {f: dashing[g] for f, g in zip(edges, base.edges)}
        heights = {label(z): h for z, h in heights.items()}
        adk = Adinkra(base.n, base.code, tuple(map(label, base.nodes)),
                      tuple(edges), dashing, heights)
        return kind, adk
    elif kind == "reversed":
        adk = Adinkra(base.n, base.code, base.nodes[::-1], tuple(edges),
                      dashing, heights)
        return kind, adk
    elif kind == "color type":  # equal to the edge, and so its dashing key
        i = draw(st.sampled_from([i for i, f in enumerate(edges)
                                  if f.color == 1]))
        edges[i] = Edge(*edges[i][:2], draw(st.sampled_from((1.0, True))))
    elif kind == "sign":
        dashing[e] = draw(st.sampled_from((0, 2, True, False, 1.0, -1.0)))
    else:
        x = draw(st.sampled_from(base.nodes))
        h = draw(st.sampled_from((None, 0.5, True, False)))
        if h is None:
            del heights[x]
        else:
            heights[x] = h
    adk = Adinkra(base.n, base.code, base.nodes, tuple(edges), dashing,
                  heights)
    return kind, adk


# every reader of a graph's structure, each on an adinkra
READERS = {
    "plaquettes": plaquettes,
    "propagate_dashing": lambda a: propagate_dashing(a, {}),
    "propagate_directions": lambda a: propagate_directions(a, {}),
    "verify_odd_dashing": verify_odd_dashing,
    "adinkra_to_gamma": adinkra_to_gamma,
    "adinkra_to_gamma(validate=False)": lambda a: adinkra_to_gamma(a, False),
    "extract_baobab": extract_baobab,
    "skeleton_tree": skeleton_tree,
    "skeleton_baobab_edges": skeleton_baobab_edges,
    "choose_pinned_arrows": choose_pinned_arrows,
}
# the readers that need four-cycles; the tree needs none
CYCLE_READERS = ("plaquettes", "propagate_dashing", "propagate_directions",
                 "verify_odd_dashing", "adinkra_to_gamma",
                 "adinkra_to_gamma(validate=False)", "extract_baobab")


@given(off_plane_adinkras())
@settings(max_examples=200, deadline=None)
def test_adinkras_off_the_quotient_are_refused(case):
    kind, adk = case
    if kind in OFF_QUOTIENT:
        want = (InputError, "graph is not the quotient of its code")
        for name, read in READERS.items():
            assert (name, outcome(read, adk)) == (name, want)
        return
    if kind == "span":  # the quotient of its code, without four-cycles
        want = (InputError, "colors (1, 2) do not span a four-cycle at 000")
        for name in CYCLE_READERS:
            assert (name, outcome(READERS[name], adk)) == (name, want)
        return
    # the quotient, with a sign or a height off the rule: Γ refuses them
    # as the checks do, at validate=False too, and builds on bool heights
    got = outcome(adinkra_to_gamma, adk, False)
    if kind == "sign":
        want = outcome(checked_signs, adk)
        assert got == want and want[0] is InputError
        assert outcome(verify_odd_dashing, adk) == want
        return
    floats = any(type(h) is float for h in adk.heights.values())
    if floats or len(adk.heights) < len(adk.nodes):
        want = outcome(checked_heights, adk, "")
        assert got == want and want[0] is InputError
        return
    want = oracles.naive_adinkra_to_gamma(adk)
    assert "_planes" in got.__dict__
    for stop_early in (True, False):
        assert outcome(check_garden, got, stop_early) == outcome(
            oracles.naive_check_garden, want, stop_early)
    assert rows(got) == rows(want)
