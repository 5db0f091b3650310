"""Malformed adinkra and baobab JSON, gate traces, wire lines and family
headers end in InputError, never a raw KeyError or TypeError."""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from adinkra import (
    AdinkraError,
    Baobab,
    DoublyEvenCode,
    GateTrace,
    InputError,
    LinearBinaryCode,
    ReplayError,
    SizeGuardError,
    adinkra_to_gamma,
    build_chromotopology,
    build_quotient_skeleton,
    directed_dof_bounds,
    extract_baobab,
    from_json,
    parse_family,
    parse_wire,
    reconstruct_adinkra,
    reconstruct_dashing,
    skeleton_baobab_edges,
    to_json,
    valise_heights,
)
from adinkra.cli import run
from adinkra.codec import EdgeBitVector, encode
from adinkra.graph import Edge, chromotopology_code
from adinkra.quaternion import (
    directions_from_vector,
    matrices_from_directions,
    quaternion_baobab_completions,
    quaternion_edges,
)


def full_adinkra(n, gens):
    skeleton = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(skeleton)
    signs, _ = reconstruct_dashing(skeleton, {e: 1 for e in tree + cycles})
    return skeleton.with_dashing(signs).with_heights(valise_heights(skeleton))


ADINKRA_DOCS = [
    json.loads(to_json(full_adinkra(n, gens)))
    for n, gens in [(2, ()), (3, ("1111",))]
]
BAOBAB_DOCS = [
    json.loads(extract_baobab(full_adinkra(n, gens)).to_json())
    for n, gens in [(2, ()), (3, ("1111",))]
]


BAOBAB = Baobab.from_json(json.dumps(BAOBAB_DOCS[1]))
_, *_TRACES = reconstruct_adinkra(
    build_chromotopology(BAOBAB.n, BAOBAB.code_generators), BAOBAB
)
# the dashing and the direction trace of n=3 code=1111, one dict per step
TRACE_DOCS = [
    [json.loads(line) for line in t.to_jsonl().splitlines()] for t in _TRACES
]


def adinkra_doc():
    return copy.deepcopy(ADINKRA_DOCS[0])


def baobab_doc():
    return copy.deepcopy(BAOBAB_DOCS[0])


# ---------- the four probes ----------


def test_node_without_label_is_input_error():
    doc = adinkra_doc()
    del doc["nodes"][0]["label"]
    with pytest.raises(InputError):
        from_json(json.dumps(doc))


def test_non_string_code_generator_is_input_error():
    doc = adinkra_doc()
    doc["code_generators"] = [5]
    with pytest.raises(InputError):
        from_json(json.dumps(doc))


def test_baobab_non_integer_color_is_input_error():
    doc = baobab_doc()
    doc["tree_edges"][0]["color"] = "x"
    with pytest.raises(InputError):
        Baobab.from_json(json.dumps(doc))


def test_baobab_edge_without_u_is_input_error():
    doc = baobab_doc()
    del doc["tree_edges"][0]["u"]
    with pytest.raises(InputError):
        Baobab.from_json(json.dumps(doc))


# JSON true and false decode to bools, which Python counts as ints; a
# color given as one is refused, not read as 1 or 0 and written back
BOOLEAN_COLORS = {
    "adinkra edge": (from_json, ADINKRA_DOCS,
                     lambda doc: doc["edges"][0].update(color=True)),
    "tree edge": (Baobab.from_json, BAOBAB_DOCS,
                  lambda doc: doc["tree_edges"][0].update(color=True)),
    "cycle edge": (Baobab.from_json, BAOBAB_DOCS,
                   lambda doc: doc["cycle_edges"][0].update(color=True)),
    "pinned edge": (Baobab.from_json, BAOBAB_DOCS,
                    lambda doc: doc["pinned"][0].update(color=True)),
    "odd colors": (Baobab.from_json, BAOBAB_DOCS,
                   lambda doc: doc["cycle_edges"][0].update(
                       odd_colors=[True, 2, 3, 4])),
}


@pytest.mark.parametrize("probe", sorted(BOOLEAN_COLORS))
def test_boolean_color_is_input_error(probe):
    parse, docs, damage = BOOLEAN_COLORS[probe]
    # the n=3, code 1111 document has a cycle edge
    doc = copy.deepcopy(docs[1])
    parse(json.dumps(doc))
    damage(doc)
    with pytest.raises(InputError, match="True"):
        parse(json.dumps(doc))


RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")
# the canonical n=4 adinkra (dashed flags and heights) and L=16 skeleton
EDGE_ROW_DOCS = {
    "n4": json.loads(to_json(full_adinkra(4, ()))),
    "L16": json.loads(to_json(build_chromotopology(11, RM14))),
}


def swap_ends(row):
    row["u"], row["v"] = row["v"], row["u"]


def flip_flag(row):
    row["dashed"] = None if row["dashed"] is not None else True


NOT_CANONICAL = "edge list does not match the canonical quotient order"
# damage to the edge rows and the error it raises on the n4 and L16
# documents; when rows hold several faults, the first in reading order
# wins: every row's fields are checked before any row is parsed, and the
# rows are parsed in order before the edge list is compared
EDGE_ROW_DAMAGE = {
    "bad label, then a missing field": (
        lambda rows: (rows[5].update(u="01x"), rows[9].pop("v")),
        "'edges' entry {'u': '0010', 'color': 4, 'dashed': True} lacks 'v'",
        "'edges' entry {'u': '0000000000000000', 'color': 10, "
        "'dashed': None} lacks 'v'"),
    "bad label": (
        lambda rows: rows[5].update(v="01x"),
        "not a bitstring: '01x'", "not a bitstring: '01x'"),
    "bool color": (
        lambda rows: rows[5].update(color=True),
        "edge color must be an integer, got True",
        "edge color must be an integer, got True"),
    "float color": (
        lambda rows: rows[5].update(color=float(rows[5]["color"])),
        "edge color must be an integer, got 2.0",
        "edge color must be an integer, got 6.0"),
    "non-bool dashed": (
        lambda rows: rows[5].update(dashed=1),
        "dashed flag must be boolean, got 1",
        "dashed flag must be boolean, got 1"),
    "bool color, then a bad label": (
        lambda rows: (rows[3].update(color=False), rows[5].update(u="01x")),
        "edge color must be an integer, got False",
        "edge color must be an integer, got False"),
    "other color, then non-bool dashed": (
        lambda rows: (rows[3].update(color=99), rows[7].update(dashed="x")),
        "dashed flag must be boolean, got 'x'",
        "dashed flag must be boolean, got 'x'"),
    "swapped u/v": (
        lambda rows: swap_ends(rows[5]),
        "edge endpoints must satisfy u < v, got {'u': '0101', 'v': '0001', "
        "'color': 2, 'dashed': False}",
        "edge endpoints must satisfy u < v, got {'u': '0000010000000000', "
        "'v': '0000000000000000', 'color': 6, 'dashed': None}"),
    "dropped row": (
        lambda rows: rows.pop(5), NOT_CANONICAL, NOT_CANONICAL),
    "extra row": (
        lambda rows: rows.append(dict(rows[0])), NOT_CANONICAL,
        NOT_CANONICAL),
    "dropped row, then non-bool dashed": (
        lambda rows: (rows.pop(5), rows[8].update(dashed=0)),
        "dashed flag must be boolean, got 0",
        "dashed flag must be boolean, got 0"),
    "extra row with a bad label": (
        lambda rows: rows.append(dict(rows[0], v="2")),
        "not a bitstring: '2'", "not a bitstring: '2'"),
    "dropped row, and one flag differs": (
        lambda rows: (rows.pop(5), flip_flag(rows[8])), NOT_CANONICAL,
        NOT_CANONICAL),
    "one flag differs": (
        lambda rows: flip_flag(rows[8]),
        "dashed flags must be given for all edges or none",
        "dashed flags must be given for all edges or none"),
}


@pytest.mark.parametrize("damage", sorted(EDGE_ROW_DAMAGE))
def test_from_json_edge_row_errors_and_their_order(damage):
    mutate, *messages = EDGE_ROW_DAMAGE[damage]
    for (name, base), message in zip(EDGE_ROW_DOCS.items(), messages):
        doc = copy.deepcopy(base)
        mutate(doc["edges"])
        with pytest.raises(InputError) as info:
            from_json(json.dumps(doc))
        assert (name, str(info.value)) == (name, message)


# damage to the fields of one edge row, and the error every edge-row
# reader raises for it on a row of 4-bit labels, from the damaged row
ONE_ROW_DAMAGE = {
    "bad label": (lambda row: row.update(v="01x"),
                  lambda row: "not a bitstring: '01x'"),
    "label of another length": (
        lambda row: row.update(u="0" + row["u"]),
        lambda row: "edge endpoints must be 4-bit labels"),
    "bool color": (
        lambda row: row.update(color=True),
        lambda row: "edge color must be an integer, got True"),
    "float color": (
        lambda row: row.update(color=float(row["color"])),
        lambda row: f"edge color must be an integer, got {row['color']!r}"),
    "swapped u/v": (
        swap_ends,
        lambda row: f"edge endpoints must satisfy u < v, got {row}"),
}


def parse_json(parse):
    return lambda doc: parse(json.dumps(doc))


def parse_trace(rows):
    return GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))


# every place an edge row is read, on the n=3, code 1111 documents: the
# reader, its document, the row and the prefix of its errors
EDGE_ROW_SITES = {
    "adinkra edge": (parse_json(from_json), ADINKRA_DOCS[1],
                     lambda doc: doc["edges"][5], ""),
    "baobab tree edge": (parse_json(Baobab.from_json), BAOBAB_DOCS[1],
                         lambda doc: doc["tree_edges"][1], ""),
    "baobab cycle edge": (parse_json(Baobab.from_json), BAOBAB_DOCS[1],
                          lambda doc: doc["cycle_edges"][0], ""),
    "baobab pinned edge": (parse_json(Baobab.from_json), BAOBAB_DOCS[1],
                           lambda doc: doc["pinned"][0], ""),
    "dashing trace input": (parse_trace, TRACE_DOCS[0],
                            lambda rows: rows[1]["inputs"][0],
                            "trace line 2: "),
    "dashing trace output": (parse_trace, TRACE_DOCS[0],
                             lambda rows: rows[1]["output"],
                             "trace line 2: "),
    "direction trace input": (parse_trace, TRACE_DOCS[1],
                              lambda rows: rows[1]["inputs"][0],
                              "trace line 2: "),
    "direction trace output": (parse_trace, TRACE_DOCS[1],
                               lambda rows: rows[1]["output"],
                               "trace line 2: "),
}


@pytest.mark.parametrize("damage", sorted(ONE_ROW_DAMAGE))
@pytest.mark.parametrize("site", sorted(EDGE_ROW_SITES))
def test_every_edge_row_reader_raises_the_same_errors(site, damage):
    parse, base, row_of, prefix = EDGE_ROW_SITES[site]
    mutate, message = ONE_ROW_DAMAGE[damage]
    doc = copy.deepcopy(base)
    parse(doc)
    row = row_of(doc)
    mutate(row)
    with pytest.raises(InputError) as info:
        parse(doc)
    assert str(info.value) == prefix + message(row)


def joined(entries):
    return "".join(map(str, entries))


def with_output_bit(bit):
    rows = copy.deepcopy(TRACE_DOCS[0])
    rows[1]["output"]["bit"] = bit
    return rows


CUBE = parse_family("n=3;code=;scheme=dashing")
QUATERNION_EDGE = quaternion_edges()[0]
QUATERNION_DIRECTIONS = directions_from_vector((1, 1, 1, 0, 1, 0))
SEED_EDGE, SEED_BIT = next(iter(BAOBAB.bits.items()))
_OUTPUT = TRACE_DOCS[0][1]["output"]
TRACE_EDGE = Edge(int(_OUTPUT["u"], 2), int(_OUTPUT["v"], 2), _OUTPUT["color"])

# every reader of bits: its call on a list of entries, which the readers
# of text get joined, the good entries, its name for them, the prefix of
# its errors, and whether it reads text; a reader of one bit (text None)
# gets one entry and names its edge
BIT_READERS = {
    "wire payload": (
        lambda e: parse_wire(f"{CUBE.header()} {joined(e)}"), [0, 1] * 6,
        CUBE.header(), "", True),
    "message as text": (
        lambda e: encode(joined(e), CUBE), [1, 0, 1, 1, 0, 1, 0],
        f"the message of {CUBE.header()}", "", True),
    "message as a list": (
        lambda e: encode(e, CUBE), [1, 0, 1, 1, 0, 1, 0],
        f"the message of {CUBE.header()}", "", False),
    "EdgeBitVector": (
        lambda e: EdgeBitVector(CUBE, tuple(e)), [0, 1] * 6, CUBE.header(),
        "", False),
    "baobab bits": (
        lambda e: Baobab.from_json(json.dumps(
            dict(BAOBAB_DOCS[1], bits=joined(e)))),
        [1] * 8, "the baobab slots", "", True),
    "quaternion vector": (
        directions_from_vector, [1, 1, 1, 0, 1, 0], "quaternion directions",
        "", False),
    "quaternion direction": (
        lambda b: matrices_from_directions(
            {**QUATERNION_DIRECTIONS, QUATERNION_EDGE: b}),
        1, f"direction for {QUATERNION_EDGE}", "", None),
    "quaternion completion": (
        lambda b: quaternion_baobab_completions({QUATERNION_EDGE: b}),
        1, f"direction for {QUATERNION_EDGE}", "", None),
    "trace bit": (
        lambda b: parse_trace(with_output_bit(b)), _OUTPUT["bit"],
        f"bit for {TRACE_EDGE}", "trace line 2: ", None),
    "replay seed": (
        lambda b: _TRACES[0].replay_dashing({**BAOBAB.bits, SEED_EDGE: b}),
        SEED_BIT, f"seed for {SEED_EDGE}", "", None),
}
# the entry each damage puts in; "short" drops the last one
BAD_ENTRIES = {"2": 2, "True": True, "1.0": 1.0, "'1'": "1", "x": "x"}
BIT_DAMAGE = {True: ("short", "2", "x"),
              False: ("short", "2", "True", "1.0", "'1'"),
              None: ("2", "True", "1.0", "'1'")}


def test_baobab_bits_must_be_a_string():
    doc = dict(BAOBAB_DOCS[1], bits=[1] * 8)
    with pytest.raises(InputError) as info:
        Baobab.from_json(json.dumps(doc))
    assert str(info.value) == "the baobab slots must be a string, got list"


@pytest.mark.parametrize("site, damage", [
    (site, damage) for site, reader in BIT_READERS.items()
    for damage in BIT_DAMAGE[reader[4]]])
def test_every_bit_reader_names_the_length_or_the_position(site, damage):
    read, good, what, prefix, text = BIT_READERS[site]
    read(good)
    if text is None:
        bad = BAD_ENTRIES[damage]
        message = f"{what} must be 0 or 1, got {bad!r}"
    elif damage == "short":
        bad = good[:-1]
        message = f"need {len(good)} bits for {what}, got {len(bad)}"
    else:
        k = len(good) - 2
        entry = BAD_ENTRIES[damage]
        bad = good[:k] + [entry] + good[k + 1:]
        got = str(entry) if text else entry
        message = f"bit {k} of {what} must be 0 or 1, got {got!r}"
    with pytest.raises(InputError) as info:
        read(bad)
    assert str(info.value) == prefix + message


# a family header (n, code_generators) put on the n=3, code 1111
# documents, and the one error every reader that names a family raises
GUARD = ("quotient construction needs 2**30 words, above the guard of "
         "2**20; set ADINKRA_SIZE_GUARD to raise the limit")
HEADER_DAMAGE = {
    "long generator": ((3, ["11110"]), InputError,
                       "code length 5 must equal n + k = 3 + 1"),
    "not doubly even": ((3, ["1100"]), InputError,
                        "codeword 1100 has weight 2, not divisible by 4"),
    "dependent generators": (
        (3, ["1111", "1111"]), InputError,
        "generators ['1111', '1111'] are linearly dependent"),
    "bad bit": ((3, ["11x1"]), InputError, "not a bitstring: '11x1'"),
    "n = 0": ((0, ["1111"]), InputError, "n must be positive, got 0"),
    "n = 30": ((30, []), SizeGuardError, GUARD),
}


def header_doc(base, n, gens):
    doc = copy.deepcopy(base)
    doc.update(n=n, code_generators=gens)
    return json.dumps(doc)


# every reader that names a family, as a call that raises its error
HEADER_READERS = {
    "adinkra JSON": lambda n, gens: from_json(
        header_doc(ADINKRA_DOCS[1], n, gens)),
    "baobab JSON": lambda n, gens: Baobab.from_json(
        header_doc(BAOBAB_DOCS[1], n, gens)),
    "codec family": lambda n, gens: parse_family(
        f"n={n};code={','.join(gens)};scheme=dashing"),
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_every_family_reader_raises_the_same_header_errors(
        damage, capsys, monkeypatch):
    monkeypatch.delenv("ADINKRA_SIZE_GUARD", raising=False)
    (n, gens), kind, message = HEADER_DAMAGE[damage]
    for name, read in HEADER_READERS.items():
        with pytest.raises(AdinkraError) as info:
            read(n, gens)
        got = type(info.value), str(info.value)
        assert (name, got) == (name, (kind, message))
    # the `adinkra build` reader: its exit code and error line
    code = run(["build", "--n", str(n), "--code", ",".join(gens)])
    line = "size-guard" if kind is SizeGuardError else "input"
    assert (code, capsys.readouterr().err) == (
        2, f"error: {line}: {message}\n")


@pytest.mark.parametrize("field", [
    "1_1", "+3", "-3", "03", "00", "3.0", "0x3", "3e0",
    "\u0663",  # ARABIC-INDIC DIGIT THREE
    "\uff13",  # FULLWIDTH DIGIT THREE
])
def test_family_n_takes_only_ascii_decimal_digits(field):
    # int() reads each of these; the header would then render another n
    with pytest.raises(InputError) as info:
        parse_family(f"n={field};code=;scheme=dashing")
    assert str(info.value) == f"family n must be an integer: {field!r}"


@pytest.mark.parametrize("header", [
    "n=1;code=;scheme=dashing", "n=3;code=1111;scheme=dashing",
    "n=10;code=;scheme=dashing",
    "n=4;code=11110000,00001111,11001100,10101010;scheme=dashing",
    "n=2;code=111;scheme=direction",
])
def test_a_family_header_renders_as_it_was_read(header):
    assert parse_family(header).header() == header


@pytest.mark.parametrize("parse", [from_json, Baobab.from_json])
@pytest.mark.parametrize("text", ["[]", "3", '"n"', "null"])
def test_non_object_json_is_input_error(parse, text):
    with pytest.raises(InputError):
        parse(text)


@pytest.mark.parametrize(
    "field, value",
    [
        ("gate", "XOR"),
        ("colors", [1, 2, 3]),
        ("colors", []),
        ("colors", [1, "2"]),
        ("corners", {}),
        ("corners", ["0000", "0011", "0110"]),
        ("corners", ["0000", "0011", "0110", "101"]),
        ("output", {"u": "0000", "v": "1000", "color": ["000"], "bit": 1}),
        ("output", {"u": "0000", "v": "1000", "color": 1, "bit": 2}),
        ("output", {"u": "0000", "v": "1000", "color": 1, "bit": 1.0}),
        ("colors", [True, 2]),
        ("output", {"u": "0000", "v": "1000", "color": True, "bit": 1}),
        ("inputs", [{"u": "0000", "v": "1000", "color": True, "bit": 1}]),
        ("output", {"u": "0000", "v": "1000", "color": 1, "bit": True}),
        ("inputs", [{"u": "0000", "v": "1000", "color": 1, "bit": False}]),
    ],
)
@pytest.mark.parametrize("doc", TRACE_DOCS, ids=["dashing", "direction"])
def test_malformed_trace_row_is_input_error(doc, field, value):
    rows = copy.deepcopy(doc)
    rows[0][field] = value
    with pytest.raises(InputError, match="^trace line 1: "):
        GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))


@pytest.mark.parametrize("doc", TRACE_DOCS, ids=["dashing", "direction"])
def test_boolean_trace_bit_is_input_error(doc):
    # a bit given as JSON true or false is refused, not parsed, written
    # back as true or false and replayed as an edge value
    for where in ("inputs", "output"):
        rows = copy.deepcopy(doc)
        row = rows[1][where][0] if where == "inputs" else rows[1][where]
        row["bit"] = bool(row["bit"])
        with pytest.raises(InputError) as err:
            GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))
        assert str(err.value).startswith("trace line 2: bit for Edge(")
        assert str(err.value).endswith(f"must be 0 or 1, got {row['bit']}")


@pytest.mark.parametrize("doc", TRACE_DOCS, ids=["dashing", "direction"])
def test_trace_row_error_names_its_line(doc):
    rows = copy.deepcopy(doc)
    rows[2]["gate"] = "XOR"
    text = "\n".join(json.dumps(r) for r in rows)
    with pytest.raises(InputError) as err:
        GateTrace.from_jsonl(text)
    assert str(err.value) == "trace line 3: unknown gate 'XOR'"
    rows[2]["gate"] = doc[2]["gate"]
    rows[4]["base"] = "01x"
    with pytest.raises(InputError) as err:
        GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))
    assert str(err.value) == "trace line 5: not a bitstring: '01x'"


@pytest.mark.parametrize(
    "field, value",
    [("colors", 5), ("corners", 7), ("inputs", [3]), ("inputs", 3),
     ("output", 7)],
)
def test_mistyped_trace_field_is_named(field, value):
    rows = copy.deepcopy(TRACE_DOCS[1])
    rows[0][field] = value
    with pytest.raises(InputError) as err:
        GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))
    assert str(err.value).startswith("trace line 1: ")
    assert field in str(err.value)
    assert "missing field" not in str(err.value)


@pytest.mark.parametrize("field", ["base", "colors", "inputs", "output"])
def test_absent_trace_field_is_missing_field(field):
    rows = copy.deepcopy(TRACE_DOCS[0])
    del rows[0][field]
    with pytest.raises(InputError, match=f"missing field '{field}'"):
        GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))


def dashing_trace_doc(n, gens):
    """The dashing trace of all-ones baobab bits, one dict per step."""
    skeleton = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(skeleton)
    _, trace = reconstruct_dashing(skeleton, {e: 1 for e in tree + cycles})
    return [json.loads(line) for line in trace.to_jsonl().splitlines()]


# the n=3 cube's labels are 3 bits long, those of TRACE_DOCS 4 bits
N3_TRACE_DOC = dashing_trace_doc(3, ())
MIXED = "inconsistent label lengths in trace"


@pytest.mark.parametrize("first, second", [
    (N3_TRACE_DOC[0], TRACE_DOCS[0][0]),
    (TRACE_DOCS[0][0], N3_TRACE_DOC[0]),
], ids=["3-bit, then 4-bit", "4-bit, then 3-bit"])
def test_trace_rows_of_mixed_label_lengths_are_input_error(first, second):
    text = "\n".join(json.dumps(r) for r in (first, second))
    with pytest.raises(InputError) as err:
        GateTrace.from_jsonl(text)
    assert str(err.value) == f"trace line 2: {MIXED}"


def widen(label):
    """The same node as a label two bits longer."""
    return "00" + label


# per field, how one of its labels is widened
WIDENED = {
    "base": lambda row: row.update(base=widen(row["base"])),
    "corners": lambda row: row["corners"].__setitem__(
        2, widen(row["corners"][2])),
    "inputs u": lambda row: row["inputs"][0].update(
        u=widen(row["inputs"][0]["u"])),
    "inputs v": lambda row: row["inputs"][-1].update(
        v=widen(row["inputs"][-1]["v"])),
    "output u": lambda row: row["output"].update(
        u=widen(row["output"]["u"])),
    "output v": lambda row: row["output"].update(
        v=widen(row["output"]["v"])),
}


@pytest.mark.parametrize("field", sorted(WIDENED))
@pytest.mark.parametrize("doc", [N3_TRACE_DOC, *TRACE_DOCS],
                         ids=["n3 dashing", "dashing", "direction"])
def test_trace_label_of_another_length_is_input_error(doc, field):
    length = len(doc[0]["base"])
    for line in (1, 2):
        rows = copy.deepcopy(doc)
        WIDENED[field](rows[line - 1])
        # the corners already had to match their row's base, and on the
        # first line the base sets the length, so there a widened base
        # fails on its own corners
        if field == "corners":
            want = f"need four {length}-bit corners"
        elif (field, line) == ("base", 1):
            want = f"need four {length + 2}-bit corners"
        elif field == "base":
            want = MIXED
        else:
            want = f"edge endpoints must be {length}-bit labels"
        with pytest.raises(InputError) as err:
            GateTrace.from_jsonl("\n".join(json.dumps(r) for r in rows))
        assert str(err.value).startswith(f"trace line {line}: {want}")


@pytest.mark.parametrize("line", ["5", "[]", '"row"', "null"])
def test_non_object_trace_line_is_input_error(line):
    with pytest.raises(InputError, match="trace line 1: not an object"):
        GateTrace.from_jsonl(line)


def test_trace_rows_roundtrip_and_replay():
    for doc, trace in zip(TRACE_DOCS, _TRACES):
        text = "\n".join(json.dumps(r) for r in doc) + "\n"
        assert GateTrace.from_jsonl(text) == trace
    assert _TRACES[0].replay_dashing(BAOBAB.bits)
    assert _TRACES[1].replay_directions(BAOBAB.pinned)


# ---------- property: parse or InputError ----------

KEYS = sorted(
    {k for d in ADINKRA_DOCS + BAOBAB_DOCS for k in d}
    | {"label", "height", "u", "v", "color", "dashed", "odd_colors",
       "toward"}
)
# Small integers keep n (and so the graph a valid prefix builds) small;
# the property is about shapes and types, not sizes.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(alphabet="01x", max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, docs):
    """A valid document with one nested value replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(list(keys)))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return doc


def documents(docs):
    return (
        mutated(docs)
        | st.dictionaries(st.sampled_from(KEYS), json_values, max_size=8)
        | json_values
    )


def parses_or_input_error(parse, doc):
    try:
        parse(json.dumps(doc))
    except InputError:
        pass


@settings(max_examples=200, deadline=None)
@given(documents(ADINKRA_DOCS))
def test_from_json_parses_or_raises_input_error(doc):
    parses_or_input_error(from_json, doc)


@settings(max_examples=200, deadline=None)
@given(documents(BAOBAB_DOCS))
def test_baobab_from_json_parses_or_raises_input_error(doc):
    parses_or_input_error(Baobab.from_json, doc)


@settings(max_examples=200, deadline=None)
@given(mutated(TRACE_DOCS))
def test_trace_parses_and_replays_or_raises_input_or_replay_error(rows):
    text = "\n".join(json.dumps(r) for r in rows)
    try:
        trace = GateTrace.from_jsonl(text)
    except InputError:
        return
    for replay, seeds in ((trace.replay_dashing, BAOBAB.bits),
                          (trace.replay_directions, BAOBAB.pinned)):
        try:
            replay(seeds)
        except (InputError, ReplayError):
            pass


HEADER_PARTS = st.sampled_from([
    "n=", "n=2", "n=3", "n=-1", "n=0", "n=x", "n=99", "code=", "code=1111",
    "code=111", "code=11110000", "code=1111,1111", "scheme=dashing",
    "scheme=direction", "scheme=", "quaternion", "=", ";", ",", " ", "1",
])
# Free text draws only the digits 0 and 1, so n is 0, 1, 10, 11 or above
# the size guard: no header asks for a large graph the guard lets through.
headers = st.lists(HEADER_PARTS, max_size=5).map(";".join) | st.text(
    alphabet="n=;code,scheme01dashingdirectionquaternion ", max_size=24
)


@settings(max_examples=300, deadline=None)
@given(headers)
def test_parse_family_parses_or_raises_input_error(text):
    try:
        parse_family(text)
    except (InputError, SizeGuardError):
        pass


@settings(max_examples=300, deadline=None)
@given(headers, st.text(alphabet="01x2 ", max_size=20))
def test_parse_wire_parses_or_raises_input_error(header, payload):
    try:
        parse_wire(f"{header} {payload}")
    except (InputError, SizeGuardError):
        pass


def test_wire_line_length_is_checked_without_building_the_graph(monkeypatch):
    def refuse(*args):
        raise AssertionError("graph built for a wire header")

    monkeypatch.setattr("adinkra.graph.build_chromotopology", refuse)
    monkeypatch.setattr("adinkra.codec.build_chromotopology", refuse)
    with pytest.raises(InputError, match="need 524288 bits"):
        parse_wire("n=16;code=;scheme=dashing 0101")


# ---------- library refusals, each with its documented text ----------


def damaged_doc(doc, damage):
    doc = copy.deepcopy(doc)
    damage(doc)
    return json.dumps(doc)


def empty_baobab(doc):
    doc.update(tree_edges=[], cycle_edges=[], bits="")


def bad_head(doc):
    doc["pinned"][0]["toward"] = "1111"


FULL = full_adinkra(3, ("1111",))
SKELETON = build_chromotopology(3, ("1111",))


def off_heights(adinkra):
    """`adinkra` with node 0 lifted to height 5: four edges then span
    more than one level."""
    return adinkra.with_heights({**adinkra.heights, 0: 5})


# case -> (a call that raises InputError, its text)
REFUSALS = {
    "baobab without edges": (
        lambda: Baobab.from_json(damaged_doc(BAOBAB_DOCS[1], empty_baobab)),
        "baobab has no edges"),
    "baobab pin off its edge": (
        lambda: Baobab.from_json(damaged_doc(BAOBAB_DOCS[1], bad_head)),
        "pinned arrow {'u': '0000', 'v': '0100', 'color': 2, "
        "'toward': '1111'} has a bad head"),
    "baobab of other generators": (
        lambda: reconstruct_dashing(SKELETON, dataclasses.replace(
            BAOBAB, code_generators=("1110",))),
        "baobab code generators do not match the skeleton"),
    "baobab of other odd colors": (
        lambda: reconstruct_dashing(SKELETON, dataclasses.replace(
            BAOBAB, odd_color_sets=(frozenset({1, 2}),))),
        "baobab cycle color sets do not match the skeleton"),
    "extraction without heights": (
        lambda: extract_baobab(SKELETON.with_dashing(FULL.dashing)),
        "extraction needs both dashing and heights"),
    "heights on some nodes": (
        lambda: from_json(damaged_doc(
            ADINKRA_DOCS[1], lambda d: d["nodes"][0].update(height=None))),
        "heights must be given for all nodes or none"),
    "plain code, not doubly even": (
        lambda: chromotopology_code(3, LinearBinaryCode(4, (0b1110,))),
        "codeword 1110 has weight 3, not divisible by 4"),
    "quotient of n = 0": (
        lambda: build_quotient_skeleton(0, LinearBinaryCode(3, (0b111,))),
        "n must be positive, got 0"),
    "gamma of bad heights": (
        lambda: adinkra_to_gamma(off_heights(FULL)),
        "invalid adinkra: heights: 4 violation(s)"),
    "code of length 0": (
        lambda: LinearBinaryCode(0, ()),
        "code length must be positive, got 0"),
    "generators of mixed lengths": (
        lambda: LinearBinaryCode.from_strings(["1111", "111"]),
        "generator '111' has length 3, expected 4"),
    "no generators and no length": (
        lambda: LinearBinaryCode.from_strings([]),
        "length is required when no generators are given"),
    "directed bounds of n = 0": (
        lambda: directed_dof_bounds(0),
        "invalid n=0"),
    "quaternion edge without direction": (
        lambda: matrices_from_directions(
            dict.fromkeys(quaternion_edges()[1:], 1)),
        "direction missing for edge Edge(u=0, v=3, color=1)"),
    "quaternion completion of an unknown edge": (
        lambda: quaternion_baobab_completions({Edge(0, 1, 4): 1}),
        "unknown edge Edge(u=0, v=1, color=4)"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_refusals_name_their_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_a_plain_linear_code_passes_the_doubly_even_gate():
    code = chromotopology_code(3, LinearBinaryCode(4, (0b1111,)))
    assert type(code) is DoublyEvenCode and code.generators == (0b1111,)


def test_verify_reports_heights_and_reads_a_file(tmp_path, capsys):
    # from a file path: a bad height lists its edges and exits 1, an
    # adinkra with no heights says so and exits 0, a non-integer height
    # is refused as input
    cases = {
        "off": (to_json(off_heights(FULL)), 1, (
            "odd-dashing: ok\nheights: 4 violation(s)\n"
            "  edge Edge(u=0, v=7, color=1)\n  edge Edge(u=0, v=4, color=2)\n"
            "  edge Edge(u=0, v=2, color=3)\n  edge Edge(u=0, v=1, color=4)\n"),
            ""),
        "absent": (to_json(SKELETON.with_dashing(FULL.dashing)), 0,
                   "odd-dashing: ok\nheights: absent\n", ""),
        "float": (damaged_doc(ADINKRA_DOCS[1], lambda d: d["nodes"][1].update(
            height=0.5)), 2, "",
            "error: input: height for '0001' must be an integer\n"),
    }
    for name, (text, code, out, err) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        got = run(["verify", str(path)]), *capsys.readouterr()
        assert (name, got) == (name, (code, out, err))


def test_export_dot_of_a_bare_skeleton(tmp_path, capsys):
    # no dashing and no heights: plain edges, no rank rows or arrows
    path = tmp_path / "skeleton.json"
    path.write_text(to_json(build_chromotopology(2, ())))
    assert run(["export-dot", str(path)]) == 0
    dot, err = capsys.readouterr()
    assert err == "" and dot.startswith("graph adinkra {\n")
    assert "rank=same" not in dot and "dir=forward" not in dot
    assert "style=dashed" not in dot and dot.count(" -- ") == 4
