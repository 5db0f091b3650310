"""Malformed adinkra and baobab JSON ends in InputError, never a raw
KeyError or TypeError."""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from adinkra import (
    Baobab,
    InputError,
    build_chromotopology,
    extract_baobab,
    from_json,
    reconstruct_dashing,
    skeleton_baobab_edges,
    to_json,
    valise_heights,
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


@pytest.mark.parametrize("parse", [from_json, Baobab.from_json])
@pytest.mark.parametrize("text", ["[]", "3", '"n"', "null"])
def test_non_object_json_is_input_error(parse, text):
    with pytest.raises(InputError):
        parse(text)


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
