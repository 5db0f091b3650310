"""Gates, spanning structure, extraction, propagation, reconstruction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adinkra import (
    Baobab,
    ContradictionError,
    Edge,
    GateTrace,
    InputError,
    InsufficientPinningError,
    ReplayError,
    SizeGuardError,
    UnderDeterminedError,
    build_chromotopology,
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
from adinkra.baobab import (
    cycle_color_set,
    heights_from_directions,
    propagate_dashing,
    propagate_directions,
)
from adinkra.codec import DASHING, Family, codewords

FAMILIES = [(2, ()), (3, ()), (3, ("1111",)), (4, ())]


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
            other, _ = propagate_dashing(a, seed, _order=order)
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
    # Counting is row reduction and never enumerates; listing the cube's
    # codewords walks its 2**7 kernel words, so that is what is guarded.
    cube = Family(3, (), DASHING)
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "6")
    with pytest.raises(SizeGuardError):
        codewords(cube)  # kernel dimension 7 > 6 bits
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "7")
    assert len(codewords(cube)) == 128
    assert count_valid_dashings(skeleton_for(3, ())) == 128
