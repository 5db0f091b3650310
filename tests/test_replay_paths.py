"""Trace replay and extraction refusals against the per-step code.

`GateTrace.replay_dashing` and `replay_directions` pass a step on dict
lookups and send any step that fails them to the per-step checks.  So
every corruption of one field of one step must give the same error, or
the same result in the same order, as the per-step replays kept in
`tests/oracles.py`.  `extract_baobab` checks the dashing by
`verify_odd_dashing`'s verdict on the node-rank planes alone, then the
heights, and its refusals must keep their texts and that order.
"""

import random
from functools import cache

import pytest

import oracles
from test_baobab import E8_CODE
from adinkra import (
    GateTrace,
    InputError,
    build_chromotopology,
    extract_baobab,
    reconstruct_adinkra,
    reconstruct_dashing,
    skeleton_baobab_edges,
    valise_heights,
    weight_heights,
)
from adinkra import baobab

RUNGS = [(3, ()), (3, ("1111",)), (4, E8_CODE), (6, ())]
# (n, gens, heights): weight heights give DXOR steps with three inputs
TRACES = [(n, gens, valise_heights) for n, gens in RUNGS] + [
    (3, (), weight_heights), (6, (), weight_heights)]
COMMON = ("expected", "not yet known", "trace says", "recomputed",
          "must be 0 or 1", "unhashable", "unpack")
FAULTS = {"NDXOR": COMMON + ("needs 3 inputs", "already"),
          "DXOR": COMMON + ("not on the cycle", "force no bit",
                            "already oriented")}


@cache
def rung(n, gens, heights=valise_heights):
    """(skeleton, adinkra, baobab, dashing trace, direction trace) of a
    seeded dashing."""
    sk = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(sk)
    rng = random.Random(n * 31 + len(gens))
    signs, _ = reconstruct_dashing(
        sk, {e: rng.randint(0, 1) for e in tree + cycles})
    adk = sk.with_dashing(signs).with_heights(heights(sk))
    bb = extract_baobab(adk)
    rebuilt, dash, dirs = reconstruct_adinkra(sk, bb)
    assert rebuilt == adk
    return sk, adk, bb, dash, dirs


def outcome(replay, trace, seeds):
    """The replayed dict as items in insertion order, or the type and
    text of what the replay raised."""
    try:
        return list(replay(trace, seeds).items())
    except Exception as exc:  # every error type compares, not only ours
        return type(exc), str(exc)


def corruptions(sk, trace, seeds, k):
    """(label, step) for one field of step k changed at a time."""
    s = trace.steps[k]
    (e, b), inputs = s.output, list(s.inputs)
    earlier = [t.output[0] for t in trace.steps[:k]] + list(seeds)
    later = [t.output[0] for t in trace.steps[k + 1:]]
    off = next(f for f in sk.edges if f.color not in s.colors)
    other_gate = "DXOR" if s.gate == "NDXOR" else "NDXOR"
    yield "gate", s._replace(gate=other_gate)
    for i, (f, c) in enumerate(inputs):
        def with_input(pair):
            return s._replace(inputs=tuple(inputs[:i] + [pair]
                                           + inputs[i + 1:]))
        yield f"input {i} bit", with_input((f, 1 - c))
        yield f"input {i} bool bit", with_input((f, bool(c)))
        yield f"input {i} float bit", with_input((f, float(c)))
        yield f"input {i} off the cycle", with_input((off, c))
        if later:
            yield f"input {i} not yet known", with_input((later[-1], c))
        yield f"input {i} as a list", with_input((list(f), c))
        yield f"input {i} not a pair", with_input((f, c, c))
        # the inputs that stay, in both orders: which one leads decides
        # what a two-input step would force
        kept = inputs[:i] + inputs[i + 1:]
        yield f"input {i} dropped", s._replace(inputs=tuple(kept))
        yield f"input {i} dropped, reversed", s._replace(
            inputs=tuple(kept[::-1]))
    yield "input repeated", s._replace(inputs=tuple(inputs + inputs[-1:]))
    yield "no inputs", s._replace(inputs=())
    for i in range(4):
        corners = list(s.corners)
        corners[i] ^= 1
        yield f"corner {i}", s._replace(corners=tuple(corners))
    yield "corners cut", s._replace(corners=s.corners[:3])
    yield "colors swapped", s._replace(colors=s.colors[::-1])
    yield "output bit", s._replace(output=(e, 1 - b))
    yield "output bool bit", s._replace(output=(e, bool(b)))
    yield "output off the cycle", s._replace(output=(off, b))
    for f in (earlier[-1], earlier[0]):
        yield "output already written", s._replace(output=(f, b))
    yield "output not a pair", s._replace(output=(e,))


@pytest.mark.parametrize("gate", ["NDXOR", "DXOR"])
def test_every_corrupted_step_replays_as_the_per_step_code(gate):
    ours = (GateTrace.replay_dashing if gate == "NDXOR"
            else GateTrace.replay_directions)
    oracle = (oracles.stepwise_replay_dashing if gate == "NDXOR"
              else oracles.stepwise_replay_directions)
    texts = set()
    for n, gens, heights in TRACES:
        sk, _, bb, dash, dirs = rung(n, gens, heights)
        trace, seeds = ((dash, bb.bits) if gate == "NDXOR"
                        else (dirs, bb.pinned))
        steps = trace.steps
        assert outcome(ours, trace, seeds) == outcome(oracle, trace, seeds)
        at = {0, 1, len(steps) // 2, len(steps) - 2, len(steps) - 1}
        # and the first step with three inputs
        at |= {next((k for k, s in enumerate(steps) if len(s.inputs) == 3),
                    0)}
        for k in sorted(at):
            for label, step in corruptions(sk, trace, seeds, k):
                bad = GateTrace(trace.length,
                                steps[:k] + (step,) + steps[k + 1:])
                want = outcome(oracle, bad, seeds)
                assert outcome(ours, bad, seeds) == want, (
                    n, gens, heights.__name__, k, label)
                if not isinstance(want, list):
                    texts.add(want[1])
    # the corruptions reach every fault the per-step checks name
    for fault in FAULTS[gate]:
        assert any(fault in text for text in texts), fault


@pytest.mark.parametrize("n, gens, heights", TRACES)
def test_parsed_traces_replay_as_the_per_step_code(n, gens, heights):
    # parsed steps share no tuple objects, so each trail is read anew
    _, _, bb, dash, dirs = rung(n, gens, heights)
    for trace, seeds, ours, oracle in (
            (dash, bb.bits, GateTrace.replay_dashing,
             oracles.stepwise_replay_dashing),
            (dirs, bb.pinned, GateTrace.replay_directions,
             oracles.stepwise_replay_directions)):
        parsed = GateTrace.from_jsonl(trace.to_jsonl())
        assert parsed == trace
        assert outcome(ours, parsed, seeds) == outcome(oracle, trace, seeds)
    # a sound trace passes every step on the lookups alone
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_replay_ndxor", "_replay_dxor"):
            patch.setattr(baobab, name, None)
        dash.replay_dashing(bb.bits)
        dirs.replay_directions(bb.pinned)


@pytest.mark.parametrize("n, gens", [(3, ()), (4, E8_CODE)])
def test_extract_refusals_keep_their_texts(n, gens):
    _, adk, _, _, _ = rung(n, gens)
    e = adk.edges[len(adk.edges) // 2]
    flipped = adk.with_dashing({**adk.dashing, e: -adk.dashing[e]})
    odd = oracles.naive_verify_odd_dashing(flipped)
    x = adk.nodes[-1]
    steep = adk.with_heights({**adk.heights, x: adk.heights[x] + 4})
    bad_heights = sum(x in (f.u, f.v) for f in adk.edges)
    cases = [
        (flipped, f"invalid adinkra: odd-dashing: {len(odd.violations)} "
                  "violation(s)"),
        (adk.with_dashing({**adk.dashing, e: 0}),
         f"dashing sign for {e} must be +1 or -1, got 0"),
        (steep, f"invalid adinkra: heights: {bad_heights} violation(s)"),
        # the dashing is checked before the heights
        (flipped.with_heights(steep.heights),
         f"invalid adinkra: odd-dashing: {len(odd.violations)} "
         "violation(s)"),
    ]
    assert len(odd.violations) == adk.length - 1
    for bad, text in cases:
        with pytest.raises(InputError) as err:
            extract_baobab(bad)
        assert str(err.value) == text

