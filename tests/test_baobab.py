"""Gates, spanning structure, extraction, propagation, reconstruction."""

import copy
import dataclasses
import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from reorder import reordered
from adinkra import (
    Baobab,
    ContradictionError,
    Edge,
    GateStep,
    GateTrace,
    InputError,
    InsufficientPinningError,
    ReplayError,
    UnderDeterminedError,
    build_chromotopology,
    build_quotient_skeleton,
    choose_pinned_arrows,
    count_valid_dashings,
    dashing_dof,
    directed_dof_bounds,
    dxor,
    extract_baobab,
    ndxor,
    plaquettes,
    reconstruct_adinkra,
    reconstruct_dashing,
    reconstruct_directions,
    skeleton_baobab_edges,
    skeleton_tree,
    valise_heights,
    verify_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra import baobab
from adinkra.baobab import (
    cycle_color_set,
    heights_from_directions,
    propagate_dashing,
    propagate_directions,
)
from adinkra.codes import DoublyEvenCode, LinearBinaryCode, gf2_rref
from adinkra.graph import (
    _color_steps, _plaquette_ids, _rank_planes, normalize_heights)

FAMILIES = [(2, ()), (3, ()), (3, ("1111",)), (4, ())]
E8_CODE = ("11110000", "00001111", "11001100", "10101010")


def skeleton_for(n, gens):
    return build_chromotopology(n, gens)


# ---------- gates ----------


def test_ndxor_truth_table():
    expected = {
        (0, 0, 0): 1, (0, 0, 1): 0, (0, 1, 0): 0, (0, 1, 1): 1,
        (1, 0, 0): 0, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 0,
    }
    for ins, out in expected.items():
        assert ndxor(*ins) == out


def test_dxor_six_legal_inputs_and_two_contradictions():
    for ins in itertools.product((0, 1), repeat=3):
        if ins in ((0, 0, 0), (1, 1, 1)):
            with pytest.raises(ContradictionError):
                dxor(*ins)
        else:
            out = dxor(*ins)
            assert out == ins[0] ^ ins[1] ^ ins[2]
            assert sum(ins) + out == 2  # exactly two ones overall


def test_gates_reject_non_bits():
    with pytest.raises(InputError):
        ndxor(0, 2, 1)
    with pytest.raises(InputError):
        dxor(0, 1, -1)
    # bools count as ints in Python, but True is no bit
    with pytest.raises(InputError, match="got True"):
        ndxor(True, 0, 0)
    with pytest.raises(InputError, match="got False"):
        dxor(0, False, 1)


def test_boolean_bits_are_input_errors():
    a = skeleton_for(3, ("1111",))
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: 1 for e in tree + cycles}
    bits, trace = propagate_dashing(a, seed)
    first = tree[0]
    for bad in (True, False):
        # the slot set, which runs the program, and a partial set
        for given in ({**seed, first: bad}, {first: bad}):
            for propagate in (propagate_dashing, reconstruct_dashing,
                              oracles.naive_propagate_dashing):
                with pytest.raises(InputError) as err:
                    propagate(a, given)
                assert str(err.value) == (
                    f"bit for {first} must be 0 or 1, got {bad!r}")
        with pytest.raises(InputError) as err:
            trace.replay_dashing({**seed, first: bad})
        assert str(err.value) == (
            f"seed for {first} must be 0 or 1, got {bad!r}")
    assert trace.replay_dashing(seed) == bits


# ---------- degrees of freedom ----------


def test_dashing_dof_values():
    assert dashing_dof(2, 0) == 3
    assert dashing_dof(3, 0) == 7
    assert dashing_dof(3, 1) == 8
    assert dashing_dof(4, 0) == 15
    with pytest.raises(InputError):
        dashing_dof(0, 0)


def test_directed_dof_bounds():
    assert directed_dof_bounds(2) == (2, 2)
    assert directed_dof_bounds(3) == (3, 4)
    assert directed_dof_bounds(4) == (4, 8)


# ---------- spanning structure ----------


@pytest.mark.parametrize("n, gens", FAMILIES)
def test_tree_parent_clears_top_bit(n, gens):
    a = skeleton_for(n, gens)
    tree = skeleton_tree(a)
    assert len(tree) == len(a.nodes) - 1
    larger = sorted(e.v for e in tree)
    assert larger == [x for x in a.nodes if x != 0]
    for e in tree:
        assert e.u == e.v ^ (1 << (e.v.bit_length() - 1))


def test_cube_has_no_cycle_edges():
    tree, cycles, odd_sets = skeleton_baobab_edges(skeleton_for(3, ()))
    assert cycles == ()
    assert odd_sets == ()
    assert len(tree) == 7


def test_quotient_cycle_edge_wraps_the_code_word():
    a = skeleton_for(3, ("1111",))
    tree, cycles, odd_sets = skeleton_baobab_edges(a)
    assert len(tree) == 7
    assert cycles == (Edge(0, 7, 1),)
    assert odd_sets == (frozenset({1, 2, 3, 4}),)
    assert cycle_color_set(Edge(0, 7, 1), a.length) == frozenset({1, 2, 3, 4})


def test_pinned_arrow_counts_hit_the_bounds():
    for n, gens in FAMILIES:
        a = skeleton_for(n, gens)
        lo, hi = directed_dof_bounds(n)
        valise = a.with_heights(valise_heights(a))
        assert len(choose_pinned_arrows(valise)) == hi
        if not gens:
            extended = a.with_heights(weight_heights(a))
            assert len(choose_pinned_arrows(extended)) == lo


# ---------- tree, cycles and pins against the edge walks ----------

RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")  # RM(1,4), doubly even


@functools.lru_cache(maxsize=None)
def structure_corpus():
    """The cubes n1-n8, every doubly even code with L <= 8, n3/1111, e8
    and RM(1,4), each with its valise heights and, when k = 0, weight
    heights: (skeleton, height profiles)."""
    skeletons = [build_chromotopology(n, ()) for n in range(1, 9)] + [
        build_chromotopology(length - len(gens), DoublyEvenCode(length, gens))
        for length in range(1, 9)
        for gens in map(gf2_rref, oracles.doubly_even_codes(length))
    ] + [build_chromotopology(3, ("1111",)), build_chromotopology(4, E8_CODE),
         build_chromotopology(11, RM14)]
    assert len(skeletons) == 8 + 1107 + 3
    return tuple(
        (a, (valise_heights(a),) + (() if a.code.k else (weight_heights(a),)))
        for a in skeletons)


def uppers(skeleton, heights):
    return {e: e.u if heights[e.u] > heights[e.v] else e.v
            for e in skeleton.edges}


def raised(a, h, rng, moves):
    """`h` with random sources raised by two, `moves` times: a random
    valid height assignment with more local extremes."""
    h = dict(h)
    steps = _color_steps(a.code)[1:]
    for _ in range(moves):
        low = [x for x in a.nodes if all(h[x ^ d] > h[x] for d in steps)]
        x = rng.choice(low)
        h[x] += 2
    return normalize_heights(h)


def odd_word_quotients():
    """Quotients by codes with odd words: 111 (n=2) and 1110 (n=3)."""
    return [build_quotient_skeleton(len(gens[0]) - 1,
                                    LinearBinaryCode.from_strings(gens))
            for gens in (("111",), ("1110",))]


def test_tree_and_cycle_edges_match_the_edge_scan():
    for a in [a for a, _ in structure_corpus()] + odd_word_quotients():
        tree, cycles, odd_sets = skeleton_baobab_edges(a)
        # the graph's own edges, one per node x > 0, in edge order
        assert len(tree) == len(a.nodes) - 1
        own = {e: e for e in a.edges}
        assert all(own[e] is e for e in tree)
        assert list(tree) == sorted(tree, key=lambda e: (e.u, e.color))
        assert sorted(e.v for e in tree) == list(a.nodes[1:])
        assert all(e == baobab._tree_edge(e.v, a.length) for e in tree)
        assert (cycles, odd_sets) == oracles.naive_cycle_edges(a)


def test_tree_paths_match_bfs():
    for a, _ in structure_corpus():
        tree = skeleton_tree(a)
        nodes = a.nodes
        pairs = list(itertools.product(nodes, repeat=2))
        if len(pairs) > 64:
            rng = random.Random(len(nodes) * 31 + a.code.k)
            pairs = rng.sample(pairs, 16) + [(x, 0) for x in nodes[-4:]] + [
                (0, x) for x in nodes[-4:]]
        for x, y in pairs:
            assert baobab._tree_path(x, y, a.length) == (
                oracles.naive_tree_path(tree, x, y)), (a.n, a.code, x, y)


def extremal_nodes(adk):
    """`baobab._extremal_nodes` on the up planes of the heights."""
    up = _rank_planes(adk).rising(list(map(adk.heights.get, adk.nodes)))
    return baobab._extremal_nodes(adk, up)


def test_extremal_nodes_and_pins_match_the_dict_walk():
    for a, profiles in structure_corpus():
        for heights in profiles:
            adk = a.with_heights(heights)
            assert extremal_nodes(adk) == oracles.naive_extremal_nodes(adk)
            # equal dicts in the same insertion order
            assert list(choose_pinned_arrows(adk).items()) == list(
                oracles.naive_choose_pinned_arrows(adk).items())


def test_node_zeros_first_tree_edge_is_read_in_closed_form():
    # the node list deposits a counter into the non-pivot bits, so its
    # middle entry holds only the highest one; the pins above read this
    # edge for a straggling node 0
    for a, _ in structure_corpus():
        nodes = a.nodes
        assert baobab._tree_edge(nodes[len(nodes) // 2], a.length) == (
            skeleton_tree(a)[0])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_pins_match_the_dict_walk_on_arbitrary_heights(data):
    # heights need not step by one here: the selection reads only which
    # nodes are extremal, so drawn heights reach the source-to-sink path
    # and straggler branches that valise and weight heights rarely take
    n, gens = data.draw(st.sampled_from(
        [(1, ()), (2, ()), (3, ()), (4, ()), (5, ()), (3, ("1111",)),
         (4, E8_CODE)]))
    a = skeleton_for(n, gens)
    heights = dict(zip(a.nodes, data.draw(st.lists(
        st.integers(0, 3), min_size=len(a.nodes), max_size=len(a.nodes)))))
    adk = a.with_heights(heights)
    assert extremal_nodes(adk) == oracles.naive_extremal_nodes(adk)
    assert list(choose_pinned_arrows(adk).items()) == list(
        oracles.naive_choose_pinned_arrows(adk).items())


# ---------- propagation ----------


def square_with_canonical_dashing():
    a = skeleton_for(2, ())
    tree = skeleton_tree(a)
    signs, trace = reconstruct_dashing(a, {e: 1 for e in tree})
    return a, signs, trace


def test_propagation_orders_reach_the_same_fixpoint():
    a = skeleton_for(3, ("1111",))
    tree, cycles, _ = skeleton_baobab_edges(a)
    rng = random.Random(7)
    for _ in range(5):
        seed = {e: rng.randint(0, 1) for e in tree + cycles}
        bits, _ = propagate_dashing(a, seed)
        for order in (
            tuple(reversed(plaquettes(a))),
            tuple(rng.sample(plaquettes(a), len(plaquettes(a)))),
        ):
            other, _ = propagate_dashing(reordered(a, order), seed)
            assert other == bits


def test_propagation_is_deterministic():
    _, _, first = square_with_canonical_dashing()
    _, _, second = square_with_canonical_dashing()
    assert first.to_jsonl() == second.to_jsonl()


def test_trace_jsonl_roundtrip_and_replay():
    a = skeleton_for(3, ("1111",))
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: 1 for e in tree + cycles}
    bits, trace = propagate_dashing(a, seed)
    parsed = GateTrace.from_jsonl(trace.to_jsonl())
    assert parsed == trace
    assert parsed.replay_dashing(seed) == bits
    # blank lines, anywhere, are skipped
    first, *rest = trace.to_jsonl().splitlines()
    assert rest
    spaced = "\n".join(["", first, "  ", *rest, "\t", ""])
    assert GateTrace.from_jsonl(spaced) == trace


def test_trace_rows_equal_the_encoder_oracle():
    # to_jsonl writes plain-int rows itself and sends every other row
    # through json.dumps; the oracle sends every row through it
    corpus = [a for a, _ in structure_corpus()]
    for sk in corpus[:8] + corpus[-3:]:  # n1-n8, n3/1111, e8, RM(1,4)
        tree, cycles, _ = skeleton_baobab_edges(sk)
        signs, _ = reconstruct_dashing(sk, {e: 1 for e in tree + cycles})
        adk = sk.with_dashing(signs).with_heights(valise_heights(sk))
        _, dash, dirs = reconstruct_adinkra(sk, extract_baobab(adk))
        for trace in (dash, dirs):
            assert trace.to_jsonl() == oracles.naive_trace_jsonl(trace)
    e, f, g, h = Edge(0, 1, 0), Edge(1, 3, 1), Edge(2, 3, 0), Edge(0, 2, 1)
    plain = GateStep("NDXOR", (0, 1), 0, (0, 1, 3, 2),
                     ((e, 1), (f, 0), (g, 1)), (h, 0))
    for step in [plain, plain._replace(gate="DXOR", inputs=((e, 1), (f, 1)))]:
        trace = GateTrace(2, (step,))
        assert trace.to_jsonl() == oracles.naive_trace_jsonl(trace)
    for step, shown in [
        (plain._replace(output=(h, True)), '"bit": true}}'),
        (plain._replace(inputs=((Edge(0, 1, 0.0), 1), (f, 0), (g, 1))),
         '"color": 0.0,'),
        (plain._replace(colors=(0, True)), '"colors": [0, true]'),
        (plain._replace(gate="XOR"), '"gate": "XOR"'),
    ]:
        trace = GateTrace(2, (plain, step))
        text = trace.to_jsonl()
        assert text == oracles.naive_trace_jsonl(trace)
        assert shown in text.splitlines()[1]
    assert GateTrace(0, ()).to_jsonl() == ""
    # a label that does not fit fails as bit_string fails, base first
    for step in (plain._replace(base=4, corners=(0, 1, 3, 9)),
                 plain._replace(output=(Edge(0, 8, 1), 0))):
        with pytest.raises(InputError) as got:
            GateTrace(2, (step,)).to_jsonl()
        with pytest.raises(InputError) as want:
            oracles.naive_trace_jsonl(GateTrace(2, (step,)))
        assert str(got.value) == str(want.value)


def test_replay_rejects_tampered_traces():
    a = skeleton_for(3, ("1111",))
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: 1 for e in tree + cycles}
    bits, trace = propagate_dashing(a, seed)
    step = trace.steps[0]
    tampered = GateTrace(
        trace.length,
        (step.__class__(
            step.gate, step.colors, step.base, step.corners, step.inputs,
            (step.output[0], step.output[1] ^ 1),
        ),) + trace.steps[1:],
    )
    with pytest.raises(ReplayError):
        tampered.replay_dashing(seed)
    # replay with a missing seed is also an error
    partial = dict(seed)
    partial.pop(next(iter(partial)))
    with pytest.raises(ReplayError):
        trace.replay_dashing(partial)


def test_direction_replay_of_equal_inputs_is_replay_error():
    # three known trail bits that agree leave no fourth bit; replay
    # reports that as a bad trace, not as a propagation contradiction
    a = skeleton_for(3, ("1111",))
    pinned = choose_pinned_arrows(a.with_heights(valise_heights(a)))
    _, _, trace = reconstruct_directions(a, pinned)
    step = trace.steps[0]
    trail = oracles.trail_from_corners(step.corners, step.colors)
    seeds = {e: to for _, to, e in trail}
    inputs = tuple((e, 0) for _, _, e in trail if e != step.output[0])
    bad = GateTrace(trace.length, (step._replace(inputs=inputs),))
    with pytest.raises(ReplayError):
        bad.replay_directions(seeds)


def direction_case(n, gens):
    a = skeleton_for(n, gens)
    pinned = choose_pinned_arrows(a.with_heights(valise_heights(a)))
    _, _, trace = reconstruct_directions(a, pinned)
    return a, pinned, trace


DIRECTION_CASES = [direction_case(n, gens)
                   for n, gens in ((2, ()), (3, ()), (3, ("1111",)))]


@st.composite
def tampered_direction_replays(draw):
    """A direction trace with up to three steps changed or dropped:
    corners redrawn (repeats and foreign nodes too), colors redrawn
    (equal ones too), an input or the output moved to another edge or
    given the other bit; half the time one seed arrow is missing."""
    a, pinned, trace = draw(st.sampled_from(DIRECTION_CASES))
    steps = list(trace.steps)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(steps) - 1))
        s = steps[i]
        what = draw(st.sampled_from(
            ("corners", "colors", "input", "output", "drop")))
        if what == "drop" and len(steps) > 1:
            del steps[i]
            continue
        if what == "corners":
            pool = s.corners + a.nodes[:4]
            s = s._replace(corners=tuple(draw(st.sampled_from(pool))
                                            for _ in range(4)))
        elif what == "colors":
            color = st.sampled_from(list(a.colors()))
            s = s._replace(colors=(draw(color), draw(color)))
        elif what == "input" and s.inputs:
            j = draw(st.integers(0, len(s.inputs) - 1))
            e, b = s.inputs[j]
            new = ((draw(st.sampled_from(a.edges)), b) if draw(st.booleans())
                   else (e, b ^ 1))
            s = s._replace(inputs=s.inputs[:j] + (new,) + s.inputs[j + 1:])
        elif what == "output":
            e, b = s.output
            s = s._replace(output=(draw(st.sampled_from(a.edges)), b)
                           if draw(st.booleans()) else (e, b ^ 1))
        steps[i] = s
    seeds = dict(pinned)
    if draw(st.booleans()):
        del seeds[draw(st.sampled_from(sorted(seeds)))]
    return GateTrace(trace.length, tuple(steps)), seeds


def replay_outcome(replay, *args):
    try:
        return replay(*args)
    except ReplayError as exc:
        return str(exc)


@given(tampered_direction_replays())
@settings(max_examples=300, deadline=None)
def test_direction_replay_matches_trail_table_oracle(case):
    trace, seeds = case
    assert replay_outcome(trace.replay_directions, seeds) == replay_outcome(
        oracles.naive_replay_directions, trace, seeds)


def test_full_plaquette_contradiction():
    a = skeleton_for(2, ())
    with pytest.raises(ContradictionError):
        propagate_dashing(a, {e: 1 for e in a.edges})  # even parity


def test_under_determined_dashing_lists_unresolved():
    a = skeleton_for(3, ())
    tree = skeleton_tree(a)
    seed = {e: 1 for e in tree[:2]}
    with pytest.raises(UnderDeterminedError) as err:
        reconstruct_dashing(a, seed)
    assert len(err.value.unresolved) > 0


def test_direction_contradiction_on_cyclic_pins():
    a = skeleton_for(2, ())
    cyclic = {
        Edge(0, 1, 2): 1,
        Edge(1, 3, 1): 3,
        Edge(2, 3, 2): 2,
        Edge(0, 2, 1): 0,
    }
    with pytest.raises(ContradictionError):
        propagate_directions(a, cyclic)


def test_heights_from_directions_integrates_unit_steps():
    a = skeleton_for(2, ())
    heads = {
        Edge(0, 1, 2): 1,
        Edge(1, 3, 1): 3,
        Edge(2, 3, 2): 3,
        Edge(0, 2, 1): 2,
    }
    assert heights_from_directions(a, heads) == {0: 0, 1: 1, 2: 1, 3: 2}
    loop = dict(heads)
    loop[Edge(0, 2, 1)] = 0
    loop[Edge(2, 3, 2)] = 2
    with pytest.raises(ContradictionError):
        heights_from_directions(a, loop)


def test_heights_match_the_bfs_oracle_on_the_structure_corpus():
    # valise, weight and seeded raised heights; the tree keys them in
    # node order, the oracle in the order its walk reaches the nodes
    rng = random.Random(35)
    for a, profiles in structure_corpus():
        for h in profiles + (raised(a, profiles[0], rng, 3),):
            heads = uppers(a, h)
            got = heights_from_directions(a, heads)
            assert got == oracles.naive_heights_from_directions(a, heads) == h
            assert list(got) == list(a.nodes)


def heights_outcome(fn, skeleton, heads):
    """(type, text) of the error `fn` raises on `heads`, or its heights."""
    try:
        return fn(skeleton, heads)
    except (InputError, ContradictionError) as exc:
        return type(exc), str(exc)


def test_heights_errors_match_the_bfs_oracle_on_the_structure_corpus():
    # heads are checked in edge order, so the first missing or bad one
    # names the same edge on both; a flipped arrow off the tree is the
    # one edge the tree's heights disagree with, so its loop error names
    # it, where the oracle names the edge its walk reaches first
    rng = random.Random(36)
    for a, profiles in structure_corpus():
        heads = uppers(a, profiles[0])
        tree = set(skeleton_tree(a))
        edges = a.edges
        for _ in range(2):
            e, f = rng.choice(edges), rng.choice(edges)
            for head in (-1, True):  # never a node
                bad = {**heads, e: head}
                # f's head missing too, before or after e
                for case in (bad, {x: h for x, h in bad.items() if x != f}):
                    want = heights_outcome(
                        oracles.naive_heights_from_directions, a, case)
                    assert want[0] is InputError
                    assert heights_outcome(
                        heights_from_directions, a, case) == want
        _, cycles, _ = skeleton_baobab_edges(a)
        off_tree = [e for e in edges if e not in tree]
        flips = rng.sample(off_tree, min(2, len(off_tree))) + list(cycles)
        for e in flips:
            case = {**heads, e: e.u ^ e.v ^ heads[e]}
            assert heights_outcome(
                oracles.naive_heights_from_directions, a, case)[0] is (
                ContradictionError)
            assert heights_outcome(heights_from_directions, a, case) == (
                ContradictionError,
                f"arrows around {e} close a loop with nonzero rise")


def test_heights_refuse_a_graph_that_is_not_its_codes_quotient():
    for a, profiles in structure_corpus()[:8] + structure_corpus()[-3:]:
        heads = uppers(a, profiles[0])
        shuffled = dataclasses.replace(a, nodes=a.nodes[::-1])
        with pytest.raises(InputError,
                           match="^graph is not the quotient of its code$"):
            heights_from_directions(shuffled, heads)


@pytest.mark.parametrize("head", [True, False, 1.0, "1", 99])
def test_non_node_head_is_input_error(head):
    # a bool or a float equal to an endpoint is no node
    a = skeleton_for(3, ())
    edge = Edge(0, 1, 3)
    with pytest.raises(InputError, match="is not an endpoint"):
        propagate_directions(a, {edge: head})
    heads = {e: e.v for e in a.edges}
    heads[edge] = head
    with pytest.raises(InputError, match="is not an endpoint"):
        heights_from_directions(a, heads)


@pytest.mark.parametrize("head", [True, 1.0, 99])
def test_direction_replay_checks_its_seeds(head):
    a, pinned, trace = DIRECTION_CASES[1]
    # an input of the first step is a seed; give it a head that is no node
    (edge, _), *_ = trace.steps[0].inputs
    with pytest.raises(InputError, match="is not an endpoint"):
        trace.replay_directions({**pinned, edge: head})


def test_pinning_refuses_partial_heights():
    a = skeleton_for(3, ())
    with pytest.raises(InputError, match=r"heights missing for nodes: \[1, 2,"):
        choose_pinned_arrows(a.with_heights({0: 0}))
    with pytest.raises(InputError) as err:
        choose_pinned_arrows(a)
    assert str(err.value) == "pinning needs heights"


def test_insufficient_pinning_reports_whole_color_classes():
    square = skeleton_for(2, ())
    with pytest.raises(InsufficientPinningError) as err:
        reconstruct_directions(square, {})
    unresolved = set(err.value.unresolved)
    for color in (1, 2):
        assert {e for e in square.edges if e.color == color} <= unresolved

    cube = skeleton_for(3, ())
    lone = {Edge(0, 4, 1): 4}
    with pytest.raises(InsufficientPinningError) as err:
        reconstruct_directions(cube, lone)
    unresolved = set(err.value.unresolved)
    for color in (2, 3):
        assert {e for e in cube.edges if e.color == color} <= unresolved


# ---------- propagation against the restart-scan oracle ----------


def outcome(propagate, skeleton, given):
    """(result items in order, trace, its JSONL) or (error type,
    message, violating plaquette)."""
    try:
        result, trace = propagate(skeleton, given)
    except (ContradictionError, InputError) as exc:
        return type(exc), str(exc), getattr(exc, "plaquette", None)
    return list(result.items()), trace, trace.to_jsonl()


def assert_matches_oracle(skeleton, known, pinned):
    assert outcome(propagate_dashing, skeleton, known) == outcome(
        oracles.naive_propagate_dashing, skeleton, known
    )
    assert outcome(propagate_directions, skeleton, pinned) == outcome(
        oracles.naive_propagate_directions, skeleton, pinned
    )


@pytest.mark.parametrize(
    "n, gens",
    [(2, ()), (3, ()), (4, ()), (5, ()), (6, ()), (3, ("1111",)),
     (4, E8_CODE), (7, ()), (8, ())],
)
def test_propagation_matches_restart_scan_on_baobabs(n, gens):
    a = skeleton_for(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(a)
    rng = random.Random(n)
    seed = {e: rng.randint(0, 1) for e in tree + cycles}
    bits, trace = propagate_dashing(a, seed)
    assert len(bits) == len(a.edges) and trace.steps
    signs = {e: 1 if b else -1 for e, b in bits.items()}
    heights = [valise_heights(a)] + ([] if gens else [weight_heights(a)])
    for h in heights:
        pinned = choose_pinned_arrows(a.with_dashing(signs).with_heights(h))
        heads, _ = propagate_directions(a, pinned)
        assert len(heads) == len(a.edges)
        assert_matches_oracle(a, seed, pinned)


@st.composite
def known_and_pinned(draw):
    """A skeleton with random dashing bits and arrows on random edges;
    many such sets contradict somewhere."""
    n, gens = draw(st.sampled_from(FAMILIES))
    a = skeleton_for(n, gens)
    edges = st.lists(st.sampled_from(a.edges), unique=True)
    known = {e: draw(st.integers(0, 1)) for e in draw(edges)}
    pinned = {e: draw(st.sampled_from((e.u, e.v))) for e in draw(edges)}
    return a, known, pinned


@given(known_and_pinned())
@settings(max_examples=150, deadline=None)
def test_propagation_matches_restart_scan_on_sampled_sets(case):
    assert_matches_oracle(*case)


def test_propagation_input_errors_match_restart_scan():
    a = skeleton_for(2, ())
    good, stranger = a.edges[0], Edge(0, 3, 1)
    for given in (
        {stranger: 1},
        {good: 2},
        {good: 1, stranger: 2},
        {good: 2, stranger: 1},
        {good: good.u, a.edges[1]: 3},
    ):
        assert_matches_oracle(a, given, given)


def test_propagation_on_edges_without_plaquettes_matches_restart_scan():
    # n = 1 has one edge and no plaquette: given bits and pins stand as
    # they are and no gate fires
    a = skeleton_for(1, ())
    (edge,) = a.edges
    assert plaquettes(a) == ()
    for given in ({}, {edge: 0}, {edge: 1}, {edge: edge.u}, {edge: edge.v}):
        assert_matches_oracle(a, given, given)
    assert propagate_dashing(a, {edge: 1})[0] == {edge: 1}
    heads, trace = propagate_directions(a, {edge: edge.v})
    assert heads == {edge: edge.v} and trace.steps == ()


# ---------- compiled NDXOR program and integer engine ----------

PROGRAM_RUNGS = [(n, ()) for n in range(1, 7)] + [(3, ("1111",)), (4, E8_CODE)]
PROGRAM_SKELETONS = {key: skeleton_for(*key)
                     for key in PROGRAM_RUNGS + [(7, ()), (8, ())]}


def dashing_cases(a, bits):
    """Slot bits, then sets the engine runs: half the slots, the slots
    plus a wrong and a right extra bit, and the slot count with one slot
    swapped for a wrong extra bit."""
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = dict(zip(tree + cycles, bits))
    full, _ = propagate_dashing(a, seed)
    cases = [seed, dict(list(seed.items())[::2])]
    others = [e for e in a.edges if e not in seed]
    if others:
        extra = others[bits.count(1) % len(others)]
        wrong = 1 - full[extra]
        swapped = dict(list(seed.items())[1:])
        swapped[extra] = wrong
        cases += [{**seed, extra: wrong}, {**seed, extra: full[extra]},
                  swapped]
    return full, cases


def assert_program_cases_match_oracle(a, bits, heights, order=None):
    """The program, the engine on partial and contradictory sets, and a
    custom order, each against the restart-scan oracles; directions on
    the pins of the dashed adinkra, all but one of them, and one wrong
    extra arrow."""
    full, cases = dashing_cases(a, bits)
    assert baobab._ndxor_program(a) is not None
    signs = {e: 1 if b else -1 for e, b in full.items()}
    pinned = choose_pinned_arrows(
        a.with_dashing(signs).with_heights(heights(a)))
    heads, _ = propagate_directions(a, pinned)
    pins = [pinned, dict(list(pinned.items())[1:])]
    others = [e for e in a.edges if e not in pinned]
    if others:
        e = others[-1]
        pins.append({**pinned, e: e.u if heads[e] == e.v else e.v})
    for known in cases:
        assert outcome(propagate_dashing, a, known) == outcome(
            oracles.naive_propagate_dashing, a, known)
    for pin in pins:
        assert outcome(propagate_directions, a, pin) == outcome(
            oracles.naive_propagate_directions, a, pin)
    if order is not None:
        custom = reordered(a, order)
        for ours, theirs, sets in (
                (propagate_dashing, oracles.naive_propagate_dashing, cases),
                (propagate_directions, oracles.naive_propagate_directions,
                 pins)):
            for given in sets:
                assert outcome(ours, custom, given) == outcome(
                    lambda *x: theirs(*x, _order=order), a, given)


@st.composite
def program_cases(draw):
    n, gens = draw(st.sampled_from(PROGRAM_RUNGS))
    a = PROGRAM_SKELETONS[n, gens]
    bits = draw(st.lists(st.integers(0, 1), min_size=(1 << n) + len(gens) - 1,
                         max_size=(1 << n) + len(gens) - 1))
    heights = draw(st.sampled_from(
        (valise_heights,) + (() if gens else (weight_heights,))))
    plaqs = plaquettes(a)
    order = draw(st.none() | st.permutations(plaqs).map(tuple))
    return a, bits, heights, order


@given(program_cases())
@settings(max_examples=80, deadline=None)
def test_program_and_engine_match_restart_scan_on_drawn_slot_bits(case):
    assert_program_cases_match_oracle(*case)


@pytest.mark.parametrize("n", [7, 8])
def test_program_and_engine_match_restart_scan_on_large_cubes(n):
    # dashing only: the restart-scan direction oracle is quadratic, and
    # test_propagation_matches_restart_scan_on_baobabs covers the pins
    a = PROGRAM_SKELETONS[n, ()]
    rng = random.Random(n)
    _, cases = dashing_cases(
        a, [rng.randint(0, 1) for _ in range((1 << n) - 1)])
    for known in cases:
        assert outcome(propagate_dashing, a, known) == outcome(
            oracles.naive_propagate_dashing, a, known)


def test_program_stands_aside_where_slots_are_not_free():
    # on a quotient by a code with odd words, some plaquette parity is
    # fixed by the slots alone; no program is kept and the engine
    # reports the contradiction the restart scan reports
    for a in odd_word_quotients():
        tree, cycles, _ = skeleton_baobab_edges(a)
        for bit in (0, 1):
            seed = {e: bit for e in tree + cycles}
            got = outcome(propagate_dashing, a, seed)
            assert got == outcome(oracles.naive_propagate_dashing, a, seed)
            assert got[0] is ContradictionError
        assert baobab._ndxor_program(a) is None


def test_compiled_program_equals_the_affine_form_oracle():
    # one engine run from all-zero slots gives the program that the
    # affine forms prove exact for every slot assignment, and no program
    # on the odd-word quotients.  The run's proof rests on the valid
    # dashings having dimension 2**n + k - 1, the slot count
    for a, _ in structure_corpus():
        program = baobab._compile_ndxor(a, _plaquette_ids(a))
        assert program and program == oracles.naive_compile_ndxor(a)
        assert count_valid_dashings(a) == 2 ** (len(a.nodes) - 1 + a.code.k)
    for a in odd_word_quotients():
        assert baobab._compile_ndxor(a, _plaquette_ids(a)) is False
        assert oracles.naive_compile_ndxor(a) is False
        assert count_valid_dashings(a) == 0


# ---------- deferred traces ----------


@pytest.mark.parametrize("length", range(4, 9))
def test_slot_traces_equal_the_restart_scan_on_every_code(length):
    # the slot path fills values from the compiled program and builds
    # its trace afterwards from the program's firing order.  Every
    # doubly even code of this length (1107 over the lengths) is checked
    # against the engine in the canonical order, and against the
    # restart scan on every code with L <= 7 and every 8th with L = 8,
    # where the scan takes about 50 ms a code
    rng = random.Random(length)
    codes = list(map(gf2_rref, oracles.doubly_even_codes(length)))
    for number, gens in enumerate(codes):
        a = build_chromotopology(length - len(gens),
                                 DoublyEvenCode(length, gens))
        tree, cycles, _ = skeleton_baobab_edges(a)
        seed = {e: rng.randint(0, 1) for e in tree + cycles}
        bits, trace = propagate_dashing(a, seed)
        assert "steps" not in vars(trace)
        # equal traces write equal JSONL, which is slow to compare here
        runs = [propagate_dashing(reordered(a, plaquettes(a)), seed)]
        if length < 8 or number % 8 == 0:
            runs.append(oracles.naive_propagate_dashing(a, seed))
        for want, want_trace in runs:
            assert list(bits.items()) == list(want.items())
            assert trace == want_trace
    assert len(codes) == {4: 1, 5: 5, 6: 30, 7: 170, 8: 901}[length]


def deferred_traces():
    """Unread traces of the program, the engine on a partial set, a
    custom order and the DXOR engine, each with an eager copy built
    from its steps."""
    a = skeleton_for(3, ("1111",))
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: 1 for e in tree + cycles}
    signs, _ = reconstruct_dashing(a, seed)
    pinned = choose_pinned_arrows(
        a.with_dashing(signs).with_heights(valise_heights(a)))
    runs = (lambda: propagate_dashing(a, seed),
            lambda: propagate_dashing(a, dict(list(seed.items())[1:])),
            lambda: propagate_dashing(reordered(a, plaquettes(a)[::-1]),
                                      seed),
            lambda: propagate_directions(a, pinned))
    pairs = []
    for run in runs:
        trace = run()[1]
        pairs.append((run()[1], GateTrace(trace.length, trace.steps)))
    return pairs


def test_deferred_trace_behaves_as_its_eager_copy():
    checks = (
        lambda t, e: t == e and e == t and not t != e,
        lambda t, e: hash(t) == hash(e),
        lambda t, e: repr(t) == repr(e),
        lambda t, e: t.to_jsonl() == e.to_jsonl(),
        lambda t, e: pickle.loads(pickle.dumps(t)) == e,
        lambda t, e: vars(pickle.loads(pickle.dumps(t))) == vars(e),
        lambda t, e: copy.deepcopy(t) == e and copy.copy(t) == e,
        lambda t, e: vars(copy.deepcopy(t)) == vars(e),
        lambda t, e: dataclasses.astuple(t) == (e.length, e.steps),
    )
    for check in checks:
        for deferred, eager in deferred_traces():
            assert "steps" not in vars(deferred)
            assert check(deferred, eager)
            assert vars(deferred) == vars(eager)
    assert all(e.steps for _, e in deferred_traces())


def test_deferred_trace_stays_frozen():
    for deferred, eager in deferred_traces():
        for name, value in (("steps", ()), ("length", 3), ("other", 1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(deferred, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del deferred.steps
        with pytest.raises(AttributeError):
            deferred.stepz
        assert deferred == eager
        with pytest.raises(dataclasses.FrozenInstanceError):
            deferred.steps = ()
        assert deferred.steps == eager.steps


def test_trace_steps_are_built_once_on_first_read(monkeypatch):
    builds = []

    def counted(*firings, real=baobab._gate_steps):
        builds.append(firings[0])
        return real(*firings)

    monkeypatch.setattr(baobab, "_gate_steps", counted)
    pairs = deferred_traces()
    assert builds == ["NDXOR", "NDXOR", "NDXOR", "DXOR"]
    builds.clear()
    for deferred, eager in pairs:
        steps = deferred.steps
        assert deferred.steps is steps and steps == eager.steps
        assert deferred.to_jsonl() == eager.to_jsonl()
    assert builds == ["NDXOR", "NDXOR", "NDXOR", "DXOR"]


# ---------- rule calls ----------


@pytest.fixture
def rule_calls(monkeypatch):
    """Every DXOR rule call as ("DXOR", steps forced), or ("DXOR", None)
    when it raised; a call that forces nothing fails the test.  NDXOR has
    no rule: its engine writes the one unknown bit of each plaquette it
    fires, so each firing shows as ("NDXOR", 1) once the run has checked
    that it wrote exactly one new edge, and a run that contradicts ends
    with ("NDXOR", None)."""
    calls = []

    def counted_rule(p, *args, real=baobab._dxor_rule):
        try:
            out = real(p, *args)
        except ContradictionError:
            calls.append(("DXOR", None))
            raise
        assert out, f"idle DXOR rule call on {p}"
        calls.append(("DXOR", len(out)))
        return out

    def counted_engine(table, vals, fresh, length,
                       real=baobab._ndxor_engine):
        unknown = vals.count(None)
        try:
            order, flat = real(table, vals, fresh, length)
        except ContradictionError:
            calls.extend([("NDXOR", 1)] * (unknown - vals.count(None)))
            calls.append(("NDXOR", None))
            raise
        outs = {out for out, _, _, _ in flat}
        assert len(order) == len(flat) == len(outs) == (
            unknown - vals.count(None)), "an NDXOR firing wrote no one edge"
        calls.extend([("NDXOR", 1)] * len(order))
        return order, flat

    monkeypatch.setattr(baobab, "_dxor_rule", counted_rule)
    monkeypatch.setattr(baobab, "_ndxor_engine", counted_engine)
    return calls


@pytest.mark.parametrize(
    "n, gens",
    [(n, ()) for n in range(2, 9)] + [(3, ("1111",)), (4, E8_CODE)],
)
def test_every_rule_call_on_a_baobab_forces_a_bit(rule_calls, n, gens):
    # slot runs fill the dashing from the compiled program and run no
    # NDXOR engine; the engine, run on a reordered copy, is checked below.
    # Compiling the program is one engine run: one firing a step.
    # Extraction checks the dashing by the program and the arrows by the
    # DXOR sweep, and fires neither engine
    a = skeleton_for(n, gens)
    program = baobab._ndxor_program(a)
    assert rule_calls == [("NDXOR", 1)] * len(program.flat)
    rule_calls.clear()
    rng = random.Random(n)
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: rng.randint(0, 1) for e in tree + cycles}
    signs, _ = reconstruct_dashing(a, seed)
    assert rule_calls == []
    heights = [valise_heights(a)] + ([] if gens else [weight_heights(a)])
    for h in heights:
        adk = a.with_dashing(signs).with_heights(h)
        calls = len(rule_calls)
        extracted = extract_baobab(adk)
        assert len(rule_calls) == calls
        rebuilt, _, _ = reconstruct_adinkra(a, extracted)
        assert rebuilt == adk and len(rule_calls) > calls
    assert {gate for gate, _ in rule_calls} == {"DXOR"}
    bits, _ = propagate_dashing(reordered(a, plaquettes(a)), seed)
    assert bits == {e: 1 if s == 1 else 0 for e, s in signs.items()}
    assert {gate for gate, _ in rule_calls} == {"NDXOR", "DXOR"}
    assert all(forced for _, forced in rule_calls)


def test_partial_and_contradicting_runs_make_no_idle_rule_calls(rule_calls):
    a = skeleton_for(4, ())
    tree = skeleton_tree(a)
    bits, _ = propagate_dashing(a, {e: 1 for e in tree[:6]})
    assert 0 < len(bits) < len(a.edges)
    heights = weight_heights(a)
    pinned = choose_pinned_arrows(a.with_heights(heights))
    part = dict(list(pinned.items())[:2])
    heads, _ = propagate_directions(a, part)
    assert len(part) < len(heads) < len(a.edges)
    assert rule_calls and all(forced for _, forced in rule_calls)
    # one wrong extra bit or arrow off the baobab contradicts only after
    # many inferences
    full, _ = propagate_dashing(a, {e: 1 for e in tree})
    extra = [e for e in a.edges if e not in tree and e not in pinned][-1]
    for propagate, given in (
        (propagate_dashing, {**{e: 1 for e in tree}, extra: 1 - full[extra]}),
        (propagate_directions,
         {**pinned, extra: min(extra.u, extra.v, key=heights.get)}),
    ):
        rule_calls.clear()
        with pytest.raises(ContradictionError):
            propagate(a, given)
        assert len(rule_calls) > 1 and rule_calls[-1][1] is None
        assert all(forced for _, forced in rule_calls[:-1])


def test_rule_calls_per_inference_stay_at_most_one(rule_calls):
    # each call forces at least one bit, so calls per inference stay at
    # or below 1 as P grows; a worklist that queues every plaquette made
    # up to 6.4 on these rungs, more the larger P
    ratios = []
    for n in range(4, 9):
        a = skeleton_for(n, ())
        rng = random.Random(n)
        tree, cycles, _ = skeleton_baobab_edges(a)
        seed = {e: rng.randint(0, 1) for e in tree + cycles}
        rule_calls.clear()
        program = baobab._ndxor_program(a)
        assert rule_calls == [("NDXOR", 1)] * len(program.flat)
        rule_calls.clear()
        bits, trace = propagate_dashing(a, seed)
        assert rule_calls == []
        assert len(trace.steps) == len(a.edges) - len(seed)
        # the engine on the same slots, in the canonical order
        engine_bits, engine_trace = propagate_dashing(
            reordered(a, plaquettes(a)), seed)
        assert list(engine_bits.items()) == list(bits.items())
        assert engine_trace == trace
        assert len(rule_calls) == len(trace.steps)
        ratios.append(len(rule_calls) / len(trace.steps))
        signs = {e: 1 if b else -1 for e, b in bits.items()}
        for h in (valise_heights(a), weight_heights(a)):
            pinned = choose_pinned_arrows(a.with_dashing(signs).with_heights(h))
            rule_calls.clear()
            heads, trace = propagate_directions(a, pinned)
            assert len(heads) == len(a.edges)
            assert sum(f for _, f in rule_calls) == len(trace.steps)
            ratios.append(len(rule_calls) / len(trace.steps))
    assert max(ratios) <= 1


def test_dxor_closed_rule_on_all_81_trail_states():
    # one plaquette, so propagation is a single application of the rule;
    # compare it against enumerating the completions with exactly two ones
    a = skeleton_for(2, ())
    (p,) = plaquettes(a)
    trail = oracles.plaquette_trail(p)
    for state in itertools.product((None, 0, 1), repeat=4):
        pinned = {
            e: (to if v == 0 else frm)
            for (frm, to, e), v in zip(trail, state) if v is not None
        }
        unknown = [i for i, v in enumerate(state) if v is None]
        ones = sum(v for v in state if v)
        completions = [
            c for c in itertools.product((0, 1), repeat=len(unknown))
            if ones + sum(c) == 2
        ]
        if not completions:
            with pytest.raises(ContradictionError) as err:
                propagate_directions(a, pinned)
            assert err.value.plaquette == p
            continue
        heads, trace = propagate_directions(a, pinned)
        forced = {}
        for pos, i in enumerate(unknown):
            seen = {sol[pos] for sol in completions}
            if len(seen) == 1:
                forced[i] = seen.pop()
        assert len(trace.steps) == len(forced)
        for i, (frm, to, e) in enumerate(trail):
            if state[i] is not None:
                assert heads[e] == pinned[e]
            elif i in forced:
                assert heads[e] == (to if forced[i] == 0 else frm)
            else:
                assert e not in heads


# ---------- roundtrips ----------


def random_valise(n, gens, rng):
    a = skeleton_for(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = {e: rng.randint(0, 1) for e in tree + cycles}
    signs, _ = reconstruct_dashing(a, seed)
    return a.with_dashing(signs).with_heights(valise_heights(a))


@pytest.mark.parametrize("n, gens", FAMILIES)
def test_valise_roundtrip_is_bit_exact(n, gens):
    rng = random.Random(1000 + n)
    for _ in range(20):
        original = random_valise(n, gens, rng)
        assert verify_odd_dashing(original).ok
        baobab = extract_baobab(original)
        rebuilt, _, _ = reconstruct_adinkra(original.skeleton(), baobab)
        assert rebuilt == original


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extended_roundtrip_is_bit_exact(n):
    rng = random.Random(2000 + n)
    a = skeleton_for(n, ())
    tree, cycles, _ = skeleton_baobab_edges(a)
    for _ in range(10):
        seed = {e: rng.randint(0, 1) for e in tree + cycles}
        signs, _ = reconstruct_dashing(a, seed)
        original = a.with_dashing(signs).with_heights(weight_heights(a))
        baobab = extract_baobab(original)
        assert len(baobab.pinned) == n
        rebuilt, _, _ = reconstruct_adinkra(a, baobab)
        assert rebuilt == original


@given(bits=st.tuples(*([st.integers(0, 1)] * 8)))
@settings(max_examples=40, deadline=None)
def test_roundtrip_prop_holds_for_every_baobab_pattern(bits):
    a = skeleton_for(3, ("1111",))
    tree, cycles, _ = skeleton_baobab_edges(a)
    seed = dict(zip(tree + cycles, bits))
    signs, _ = reconstruct_dashing(a, seed)
    original = a.with_dashing(signs).with_heights(valise_heights(a))
    baobab = extract_baobab(original)
    assert baobab.bits == seed
    rebuilt, _, _ = reconstruct_adinkra(a, baobab)
    assert rebuilt == original


def test_baobab_json_roundtrip():
    rng = random.Random(5)
    original = random_valise(3, ("1111",), rng)
    baobab = extract_baobab(original)
    parsed = Baobab.from_json(baobab.to_json())
    assert parsed == baobab
    rebuilt, _, _ = reconstruct_adinkra(original.skeleton(), parsed)
    assert rebuilt == original


def test_baobab_json_rejects_corrupted_documents():
    import json as _json

    rng = random.Random(6)
    baobab = extract_baobab(random_valise(2, (), rng))
    doc = _json.loads(baobab.to_json())
    doc["bits"] = doc["bits"][:-1]
    with pytest.raises(InputError):
        Baobab.from_json(_json.dumps(doc))


def test_reconstruct_rejects_baobab_for_wrong_skeleton():
    rng = random.Random(7)
    baobab = extract_baobab(random_valise(2, (), rng))
    with pytest.raises(InputError):
        reconstruct_adinkra(skeleton_for(3, ()), baobab)


def test_reconstruct_rejects_baobab_edge_off_the_skeleton():
    import json as _json

    rng = random.Random(7)
    original = random_valise(2, (), rng)
    doc = _json.loads(extract_baobab(original).to_json())
    row = doc["tree_edges"][0]
    row["color"] = 3 - row["color"]  # the same ends, joined by no edge
    baobab = Baobab.from_json(_json.dumps(doc))
    assert not set(baobab.tree_edges) <= set(original.edges)
    with pytest.raises(InputError,
                       match="^baobab edges are not the canonical "
                             "tree/cycle set$"):
        reconstruct_adinkra(original.skeleton(), baobab)


# ---------- counting ----------


@pytest.mark.parametrize(
    "n, gens, expected",
    [(2, (), 8), (3, (), 128), (3, ("1111",), 256)],
)
def test_count_valid_dashings_is_two_to_the_dof(n, gens, expected):
    a = skeleton_for(n, gens)
    k = a.length - n
    assert count_valid_dashings(a) == expected == 2 ** dashing_dof(n, k)


@pytest.mark.parametrize("n", [2, 3])
def test_count_matches_pure_python_brute_force(n):
    a = skeleton_for(n, ())
    index = {e: i for i, e in enumerate(a.edges)}
    quads = [
        tuple(index[e] for e in p.edges) for p in plaquettes(a)
    ]
    brute = oracles.brute_force_dashings(len(a.edges), quads)
    assert count_valid_dashings(a) == len(brute)


def test_count_respects_size_guard(monkeypatch):
    # Counting is closed form and never enumerates: the cube's 2**7
    # dashings are counted under a guard of 6 bits.
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "6")
    assert count_valid_dashings(skeleton_for(3, ())) == 128
