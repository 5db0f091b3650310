"""The graph layer against the builders it replaced: plaquettes from
`naive_build_plaquettes`, JSON text from `naive_to_json`, and the label
errors of `parse_bit_string` and `from_json`; and the bulk builders'
pause of the cyclic collector."""

import gc
import json
import random
import threading
from functools import partial
from itertools import combinations

import pytest

import oracles
from adinkra import (
    GateTrace,
    InputError,
    adinkra_to_gamma,
    build_chromotopology,
    from_json,
    plaquette_count,
    plaquettes,
    reconstruct_dashing,
    skeleton_baobab_edges,
    to_json,
    valise_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra.codes import LinearBinaryCode, gf2_rref, parse_bit_string
from adinkra import graph
from adinkra.graph import build_quotient_skeleton
from adinkra.quaternion import quaternion_skeleton

E8_CODE = ("11110000", "00001111", "11001100", "10101010")
RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")


def rm14_permutation(seed):
    """RM(1,4) with its 16 coordinates shuffled: an L=16, k=5 code."""
    perm = list(range(16))
    random.Random(seed).shuffle(perm)
    return tuple("".join(g[p] for p in perm) for g in RM14)


def assert_plaquettes_match_oracle(sk):
    got = plaquettes(sk)
    assert got == oracles.naive_build_plaquettes(sk)
    assert_parts_are_shared(sk)


def assert_parts_are_shared(sk):
    """Plaquette edges are the skeleton's own `Edge` objects, and every
    edge endpoint, plaquette base and corner is one of its own node
    ints, not an equal copy (ints above 256 are not interned, so only
    the L > 8 cases can tell the two apart)."""
    own = {e: e for e in sk.edges}
    assert all(own[e] is e for p in plaquettes(sk) for e in p.edges)
    node_ids = set(map(id, sk.nodes))
    assert node_ids.issuperset(id(x) for e in sk.edges for x in e[:2])
    assert node_ids.issuperset(
        id(x) for p in plaquettes(sk) for x in (p.base, *p.corners))


def test_plaquettes_match_oracle_on_every_code_up_to_length_8():
    codes = [
        gf2_rref(words)
        for length in range(1, 9)
        for words in oracles.doubly_even_codes(length)
    ]
    assert len(codes) == 1107
    for gens in codes:
        length = max(gens).bit_length()
        sk = build_chromotopology(length - len(gens), [
            format(g, f"0{length}b") for g in gens])
        assert_plaquettes_match_oracle(sk)


@pytest.mark.parametrize("n", range(1, 9))
def test_plaquettes_match_oracle_on_cubes(n):
    assert_plaquettes_match_oracle(build_chromotopology(n, ()))


@pytest.mark.parametrize("seed", [1, 2])
def test_plaquettes_match_oracle_at_length_16(seed):
    sk = build_chromotopology(11, rm14_permutation(seed))
    assert_plaquettes_match_oracle(sk)
    assert len(plaquettes(sk)) == 120 * 2 ** 9


@pytest.mark.parametrize("n, gens", [
    (1, ()),  # no color pair, so no plaquette
    (2, ()),  # one base per pair, so one rank to gather
    (2, ("111",)),  # one base per pair; the quaternion skeleton's code
    (3, ("1110",)),
], ids=["n1-no-pairs", "n2-one-base", "n2-111-one-base", "n3-1110"])
def test_plaquettes_match_oracle_on_quotient_skeletons(n, gens):
    code = LinearBinaryCode(n + len(gens), tuple(int(g, 2) for g in gens))
    skeletons = [build_quotient_skeleton(n, code)]
    if gens == ("111",):
        skeletons.append(quaternion_skeleton())
    for sk in skeletons:
        assert_plaquettes_match_oracle(sk)
        assert len(plaquettes(sk)) == plaquette_count(sk)
        if n == 2:
            assert [p.colors for p in plaquettes(sk)] == list(
                combinations(sk.colors(), 2))


def test_plaquettes_refuse_colors_without_a_four_cycle():
    # the weight-2 word 110 makes colors 1 and 2 step alike
    sk = build_quotient_skeleton(2, LinearBinaryCode(3, (0b110,)))
    # the plane readers refuse it with the same text, Γ unvalidated too
    adk = sk.with_dashing(dict.fromkeys(sk.edges, 1)).with_heights(
        valise_heights(sk))
    errors = []
    for build in (plaquettes, oracles.naive_build_plaquettes,
                  verify_odd_dashing, partial(adinkra_to_gamma,
                                              validate=False)):
        with pytest.raises(InputError) as info:
            build(adk)
        errors.append(str(info.value))
    assert errors == ["colors (1, 2) do not span a four-cycle at 000"] * 4


# ---------- JSON ----------

FAMILIES = [(n, ()) for n in range(1, 9)] + [(3, ("1111",)), (4, E8_CODE)]


def json_cases(n, gens):
    """The skeleton, and a valid dashing with valise heights and, for
    k = 0, weight heights."""
    sk = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(sk)
    rng = random.Random(n)
    signs, _ = reconstruct_dashing(
        sk, {e: rng.randint(0, 1) for e in tree + cycles})
    heights = [valise_heights(sk)] + ([] if gens else [weight_heights(sk)])
    return [sk] + [sk.with_dashing(signs).with_heights(h) for h in heights]


def assert_json_matches_oracle(adk):
    text = to_json(adk)
    assert text == oracles.naive_to_json(adk)
    back = from_json(text)
    assert back == adk
    assert_parts_are_shared(back)
    if adk.dashing is not None:
        # the parsed dashing is keyed by the skeleton's own edges
        own = {e: e for e in back.edges}
        assert all(own[e] is e for e in back.dashing)


@pytest.mark.parametrize("n, gens", FAMILIES)
def test_to_json_matches_json_dumps(n, gens):
    for adk in json_cases(n, gens):
        assert_json_matches_oracle(adk)


def test_to_json_matches_json_dumps_at_length_16():
    sk = build_chromotopology(11, rm14_permutation(1))
    # the writer renders any ±1 map; a valid dashing is not needed here
    rng = random.Random(16)
    signs = {e: rng.choice((1, -1)) for e in sk.edges}
    for adk in (sk, sk.with_dashing(signs).with_heights(valise_heights(sk))):
        assert_json_matches_oracle(adk)


def test_to_json_renders_bool_heights_like_json_dumps():
    doc = json.loads(to_json(build_chromotopology(1, ())))
    for row, h in zip(doc["nodes"], (True, 1)):
        row["height"] = h
    adk = from_json(json.dumps(doc))
    assert [adk.heights[x] for x in adk.nodes] == [True, 1]
    text = to_json(adk)
    assert text == oracles.naive_to_json(adk)
    assert '"height": true' in text and '"height": 1\n' in text


# ---------- label checks ----------

BAD_LABELS = ["", "012", "01a", " 01", "01 ", "0 1", "01\n", "\t01",
              "0_1", "_01", "+01", "-01", "0b1", "１", 5, None, ["01"]]


@pytest.mark.parametrize("text", BAD_LABELS)
def test_parse_bit_string_rejects_non_binary_text(text):
    with pytest.raises(InputError) as info:
        parse_bit_string(text)
    assert str(info.value) == f"not a bitstring: {text!r}"


def test_parse_bit_string_reads_binary_text():
    assert parse_bit_string("0") == (0, 1)
    assert parse_bit_string("0101") == (5, 4)
    assert parse_bit_string("1" * 40) == (2 ** 40 - 1, 40)


@pytest.mark.parametrize("text", BAD_LABELS[:11])
def test_from_json_names_the_bad_label(text):
    base = json.loads(to_json(build_chromotopology(2, ())))
    for rows, key in (("nodes", "label"), ("edges", "u"), ("edges", "v")):
        doc = json.loads(json.dumps(base))
        doc[rows][1][key] = text
        with pytest.raises(InputError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == f"not a bitstring: {text!r}"


def test_from_json_names_a_label_of_the_wrong_length():
    doc = json.loads(to_json(build_chromotopology(2, ())))
    doc["nodes"][1]["label"] = "011"
    with pytest.raises(InputError, match=r"^label '011' is not 2 bits$"):
        from_json(json.dumps(doc))


@pytest.fixture
def parses(monkeypatch):
    """The label texts `from_json` hands to `parse_bit_string`."""
    calls = []

    def counted(text):
        calls.append(text)
        return parse_bit_string(text)

    monkeypatch.setattr(graph, "parse_bit_string", counted)
    return calls


@pytest.mark.parametrize("n, gens", [(3, ("1111",)), (4, E8_CODE)])
def test_from_json_parses_no_label_of_a_canonical_document(parses, n, gens):
    for adk in json_cases(n, gens):
        parses.clear()
        assert from_json(to_json(adk)) == adk
        assert parses == []


def test_from_json_parses_only_the_labels_that_differ(parses):
    # of the node and edge rows, only those that differ from the
    # skeleton's own rendering
    base = json.loads(to_json(build_chromotopology(3, ())))
    cases = [
        (("nodes", 2, "label"), "011",
         "node list does not match the canonical quotient order"),
        (("edges", 4, "u"), "000",
         "edge list does not match the canonical quotient order"),
        (("edges", 4, "v"), "1111", "edge endpoints must be 3-bit labels"),
        (("edges", 0, "v"), "000",
         "edge endpoints must satisfy u < v, got {'u': '000', 'v': '000', "
         "'color': 1, 'dashed': None}"),
    ]
    for (rows, i, key), text, message in cases:
        doc = json.loads(json.dumps(base))
        doc[rows][i][key] = text
        parses.clear()
        with pytest.raises(InputError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == message
        if rows == "nodes":
            assert parses == [text]
        else:
            row = doc["edges"][i]
            assert parses == [row["u"], row["v"]]
    # an appended node row has no own node to match, so it is parsed
    doc = json.loads(json.dumps(base))
    doc["nodes"].append(dict(doc["nodes"][0]))
    parses.clear()
    with pytest.raises(InputError, match="^node list does not match"):
        from_json(json.dumps(doc))
    assert parses == ["000"]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_from_json_node_row_errors_keep_their_text(parses, where):
    # a row that differs from the skeleton's own label is parsed as
    # before, so each fault gives the message the full parse gave
    base = json.loads(to_json(build_chromotopology(4, E8_CODE)))
    rows = base["nodes"]
    i = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
    own = rows[i]["label"]
    other = rows[(i + 1) % len(rows)]["label"]
    cases = [
        (own[:-1] + "x", f"not a bitstring: {own[:-1] + 'x'!r}"),
        (5, "not a bitstring: 5"),
        (own + "0", f"label {own + '0'!r} is not 8 bits"),
        (own[1:], f"label {own[1:]!r} is not 8 bits"),
        (other, "node list does not match the canonical quotient order"),
    ]
    for text, message in cases:
        doc = json.loads(json.dumps(base))
        doc["nodes"][i]["label"] = text
        parses.clear()
        with pytest.raises(InputError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == message
        assert parses == [text]
    # the rows are still read in order: a bad height before the bad
    # label wins, and one after it does not
    for j, message in ((i - 1, "height for {!r} must be an integer"),
                       (i + 1, "not a bitstring: 'x'")):
        if not 0 <= j < len(rows):
            continue
        doc = json.loads(json.dumps(base))
        doc["nodes"][i]["label"] = "x"
        doc["nodes"][j]["height"] = "1"
        with pytest.raises(InputError) as info:
            from_json(json.dumps(doc))
        assert str(info.value) == message.format(rows[j]["label"])


def test_from_json_keys_heights_by_the_skeletons_own_nodes():
    # n = 9: labels above 256 are not interned, so `is` tells a parsed
    # label from the skeleton's own node int
    sk = build_chromotopology(9, ())
    back = from_json(to_json(sk.with_heights(valise_heights(sk))))
    assert back.heights == valise_heights(sk)
    assert all(k is x for k, x in zip(back.heights, back.nodes))
    doc = json.loads(to_json(sk))
    for row in doc["nodes"]:
        row["height"] = row["label"].count("1") % 2 == 1
    text = json.dumps(doc, indent=2) + "\n"
    back = from_json(text)
    assert all(k is x for k, x in zip(back.heights, back.nodes))
    assert to_json(back) == text


# ---------- the collector pause ----------


@pytest.fixture
def collector_on():
    """The cyclic collector on when the test starts, and afterwards as it
    was before."""
    was = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture
def collections():
    """The collections the cyclic collector starts while the test runs."""
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield started
    finally:
        gc.callbacks.remove(hook)


def paused_builders():
    """One call into each builder that pauses the collector: a skeleton's
    plaquettes, its id tables, its JSON read back, a trace's steps, the
    trace read back."""
    sk = build_chromotopology(4, ())
    yield "plaquettes", lambda: plaquettes(sk)
    yield "fill_ids", lambda: graph._plaquette_ids(sk)
    yield "from_json", lambda: from_json(to_json(sk))
    tree, cycles, _ = skeleton_baobab_edges(sk)
    _, trace = reconstruct_dashing(sk, {e: 1 for e in tree + cycles})
    yield "_gate_steps", lambda: trace.steps
    yield "from_jsonl", lambda: GateTrace.from_jsonl(trace.to_jsonl())


def test_paused_builders_enable_the_collector_again(collector_on):
    for name, build in paused_builders():
        build()
        assert (name, gc.isenabled()) == (name, True)


def test_collector_is_enabled_again_after_a_builder_raises(collector_on):
    doc = json.loads(to_json(build_chromotopology(3, ())))
    doc["edges"][4]["u"] = "01x"
    with pytest.raises(InputError, match="not a bitstring: '01x'"):
        from_json(json.dumps(doc))
    assert gc.isenabled()
    with pytest.raises(InputError, match="^trace line 1: invalid JSON"):
        GateTrace.from_jsonl("{")
    assert gc.isenabled()


def test_collector_the_caller_disabled_stays_disabled(collector_on):
    gc.disable()
    for name, build in paused_builders():
        build()
        assert (name, gc.isenabled()) == (name, False)


@pytest.mark.parametrize("build", [
    plaquettes,
    # from_json builds its skeleton inside the pause
    lambda sk: from_json(to_json(sk)),
], ids=["plaquettes", "from_json"])
def test_no_collection_starts_inside_a_paused_builder(
        collector_on, collections, build):
    sk = build_chromotopology(8, ())
    collections.clear()
    build(sk)
    assert collections == []


def test_overlapping_pauses_in_two_threads(collector_on):
    """The first of two overlapping paused builds to start ends first:
    the collector stays off until the other one ends too."""

    @graph._collector_paused
    def build(entered, release):
        entered.set()
        release.wait(10)

    runs = []
    for _ in range(2):
        entered, release = threading.Event(), threading.Event()
        worker = threading.Thread(target=build, args=(entered, release))
        worker.start()
        runs.append((worker, release))
        assert entered.wait(10)
    try:
        first, release = runs[0]
        release.set()
        first.join()
        assert not gc.isenabled()
    finally:
        for worker, release in runs:
            release.set()
            worker.join()
    assert gc.isenabled()
