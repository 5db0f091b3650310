"""The byte contract of the n=8 and RM(1,4) pipelines: every artifact of
`build | baobab | reconstruct --trace` pinned by line count and sha256,
the round trips, each trace read back and replayed, and the traced step
counts of the benchmark ladder's rungs."""

import hashlib

import pytest

from adinkra import (
    Baobab,
    GateTrace,
    build_chromotopology,
    extract_baobab,
    from_json,
    reconstruct_adinkra,
    reconstruct_dashing,
    skeleton_baobab_edges,
    valise_heights,
    weight_heights,
)
from adinkra.cli import run

RM14 = ("1111111111111111,0000000011111111,0000111100001111,"
        "0011001100110011,0101010101010101")

# size -> build arguments, and each pinned artifact's (lines, sha256)
PIPELINES = {
    8: (["--n", "8"], {
        "baobab": (2053, "c8f434ee674df8d405ba151e24cd675461a854a3"
                         "5ef8df4d44d8a384ace760fd"),
        "trace": (1665, "ad31e332f7c975a3598d497a11f11d55bfc5b3b7"
                        "8ce67e5065124e982305b3ea"),
    }),
    16: (["--n", "11", "--code", RM14], {
        "built": (106510, "cebf2c66acad4c6b6b630147671f82a2f844ccfe"
                          "d73013897626fdef71a1f54e"),
        "baobab": (16471, "4741a54986b9885265e06d46060959220a2dc377"
                          "7f071e9d8d90c831672d95f9"),
        "trace": (29692, "5e6818bdf6fe6d5668348f3dd558e510649ece9b"
                         "382ec623130f019779e632b3"),
    }),
}


@pytest.fixture(scope="module", params=sorted(PIPELINES))
def texts(request, tmp_path_factory):
    """The size and the texts `build`, `baobab` and `reconstruct --trace`
    write for it."""
    size = request.param
    args, _ = PIPELINES[size]
    folder = tmp_path_factory.mktemp(f"pipeline{size}")
    paths = {name: folder / name
             for name in ("built", "baobab", "rebuilt", "trace")}
    assert run(["build", *args, "-o", str(paths["built"])]) == 0
    assert run(["baobab", str(paths["built"]),
                "-o", str(paths["baobab"])]) == 0
    assert run(["reconstruct", str(paths["baobab"]),
                "--trace", str(paths["trace"]),
                "-o", str(paths["rebuilt"])]) == 0
    return size, {name: path.read_text() for name, path in paths.items()}


def pins(texts, size):
    """Each pinned artifact's (lines, sha256) as `wc -l` and `sha256sum`
    give them."""
    return {name: (texts[name].count("\n"),
                   hashlib.sha256(texts[name].encode()).hexdigest())
            for name in PIPELINES[size][1]}


def test_pipeline_artifacts_are_byte_identical(texts):
    size, texts = texts
    assert pins(texts, size) == PIPELINES[size][1]
    assert texts["rebuilt"] == texts["built"]
    trace = GateTrace.from_jsonl(texts["trace"])
    assert trace.to_jsonl() == texts["trace"]
    # the NDXOR rows from the baobab's bits give the dashing, the DXOR
    # rows from its pins the arrows of the heights
    bb = Baobab.from_json(texts["baobab"])
    adk = from_json(texts["built"])
    dash, dirs = (GateTrace(trace.length, tuple(
        s for s in trace.steps if s.gate == gate))
        for gate in ("NDXOR", "DXOR"))
    assert dash.replay_dashing(bb.bits) == {
        e: 1 if s == 1 else 0 for e, s in adk.dashing.items()}
    h = adk.heights
    assert dirs.replay_directions(bb.pinned) == {
        e: e.u if h[e.u] > h[e.v] else e.v for e in adk.edges}


def test_one_changed_byte_breaks_the_pins(texts):
    # each artifact's pin sees one digit of it changed
    size, texts = texts
    for name in PIPELINES[size][1]:
        text = texts[name]
        at = text.index("1")
        damaged = dict(texts, **{name: text[:at] + "0" + text[at + 1:]})
        assert pins(damaged, size) != PIPELINES[size][1]


E8_CODE = ("11110000", "00001111", "11001100", "10101010")
# the benchmark ladder: (rung, n, code generators, height profile), with
# v = valise and x = weight heights; n <= 5 and n3k1 form one group
RUNGS = tuple(
    (f"n{n}{p}", n, (), p) for n in range(3, 9) for p in "vx"
) + (("n3k1", 3, ("1111",), "v"), ("e8", 4, E8_CODE, "v"))
# group -> (NDXOR steps, DXOR steps) of its rungs' traces
LADDER_STEPS = {
    "n6v": (129, 160), "n6x": (129, 186), "n7v": (321, 384),
    "n7x": (321, 441), "n8v": (769, 896), "n8x": (769, 1016),
    "e8": (45, 56), "small": (150, 220),
}


def test_ladder_trace_step_counts():
    got = dict.fromkeys(LADDER_STEPS, (0, 0))
    for rung, n, gens, profile in RUNGS:
        group = rung if rung in LADDER_STEPS else "small"
        skeleton = build_chromotopology(n, gens)
        tree, cycles, _ = skeleton_baobab_edges(skeleton)
        signs, _ = reconstruct_dashing(
            skeleton, dict.fromkeys(tree + cycles, 1))
        heights = (valise_heights if profile == "v"
                   else weight_heights)(skeleton)
        adk = skeleton.with_dashing(signs).with_heights(heights)
        rebuilt, dash, dirs = reconstruct_adinkra(
            build_chromotopology(n, gens), extract_baobab(adk))
        assert rebuilt == adk
        ndxor, dxor = got[group]
        got[group] = ndxor + len(dash.steps), dxor + len(dirs.steps)
    assert got == LADDER_STEPS
