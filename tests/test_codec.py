"""Families, wire format, syndromes, correction, erasures."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adinkra import (
    AmbiguousCorrectionError,
    ContradictionError,
    InputError,
    SizeGuardError,
    UncorrectableError,
    UnderDeterminedError,
    plaquettes,
)
from adinkra import algebra, codec, quaternion
from adinkra.codec import (
    DASHING,
    DIRECTION,
    EdgeBitVector,
    Family,
    QUATERNION_FAMILY,
    block_length,
    correct,
    decode,
    encode,
    family_code,
    family_skeleton,
    fill_erasures,
    format_wire,
    inject_errors,
    message_length,
    message_slots,
    min_distance,
    parse_family,
    parse_wire,
    syndrome,
)
from adinkra.codes import AffineCode
from adinkra.quaternion import COLOR_UNITS, directions_from_vector

SQUARE = Family(2, (), DASHING)
CUBE = Family(3, (), DASHING)
QUOTIENT31 = Family(3, ("1111",), DASHING)
DASHING_FAMILIES = [SQUARE, CUBE, QUOTIENT31]
ALL_FAMILIES = DASHING_FAMILIES + [QUATERNION_FAMILY]


def oracle_words(family):
    """Every valid block of a family, from the naive oracles."""
    skeleton = family_skeleton(family)
    if family.scheme == DIRECTION:
        return oracles.quaternion_direction_words(
            [(e.u, e.v, COLOR_UNITS[e.color]) for e in skeleton.edges]
        )
    index = {e: i for i, e in enumerate(skeleton.edges)}
    quads = [tuple(index[e] for e in p.edges) for p in plaquettes(skeleton)]
    return oracles.brute_force_dashings(len(skeleton.edges), quads)


ORACLE_WORDS = {family: oracle_words(family) for family in ALL_FAMILIES}


# ---------- families and wire format ----------


def test_parse_family_accepts_header_and_alias():
    assert parse_family("quaternion") == QUATERNION_FAMILY
    fam = parse_family("n=3;code=1111;scheme=dashing")
    assert fam == QUOTIENT31
    assert parse_family(fam.header()) == fam
    assert parse_family("n=2;code=;scheme=dashing") == SQUARE


@pytest.mark.parametrize(
    "text",
    [
        "n=3;scheme=dashing",  # missing code field
        "n=x;code=;scheme=dashing",
        "n=2;code=;scheme=banana",
        "n=2;code=111;scheme=dashing",  # not doubly even
        "n=2;code=;scheme=direction",  # directions are quaternion-only
        "n=4;n=3;code=1111;scheme=dashing",  # repeated field
        "n=3;code=1111;scheme=dashing;colour=2",  # unknown field
    ],
)
def test_parse_family_rejects_bad_headers(text):
    with pytest.raises(InputError):
        parse_family(text)


@pytest.mark.parametrize("text, message", [
    ("n=4;n=3;code=1111;scheme=dashing", "repeated family field 'n'"),
    ("n=3; scheme =dashing;code=1111;scheme=direction",
     "repeated family field 'scheme'"),
    ("n=3;code=1111;scheme=dashing;colour=2", "unknown family field 'colour'"),
    ("n=3;code=1111;=2;scheme=dashing", "unknown family field ''"),
])
def test_parse_family_names_a_repeated_or_unknown_field(text, message):
    with pytest.raises(InputError, match=message):
        parse_family(text)


@pytest.mark.parametrize("text, message", [
    ("n=3;code=1111;scheme=dashing;colour=2", "unknown family field "
     "'colour' in 'n=3;code=1111;scheme=dashing;colour=2'"),
    ("n=3;code=1111;dashing", "malformed family field 'dashing' in "
     "'n=3;code=1111;dashing'"),
    ("n=3;code=1111", "family header missing 'scheme': 'n=3;code=1111'"),
    ("n=three;code=;scheme=dashing", "family n must be an integer: 'three'"),
    # past 48 characters: the first 48 and the length
    ("n=3;code=1111;scheme=dashing;" + "x" * 40, "malformed family field "
     f"'{'x' * 40}' in 'n=3;code=1111;scheme=dashing;{'x' * 19}'... "
     "(69 characters)"),
    ("1" * 16384, f"malformed family field '{'1' * 48}'... (16384 "
     f"characters) in '{'1' * 48}'... (16384 characters)"),
    (f"n={'x' * 60};code=;scheme=dashing", "family n must be an integer: "
     f"'{'x' * 48}'... (60 characters)"),
])
def test_parse_family_errors_quote_at_most_48_characters(text, message):
    with pytest.raises(InputError) as err:
        parse_family(text)
    assert str(err.value) == message


def test_a_wire_line_with_swapped_fields_gives_one_short_error():
    # the 16384-bit block is read as the header: its excerpt, not its bits
    family = parse_family(f"n=11;code={','.join(RM14)};scheme=dashing")
    header, bits = format_wire(encode("1" * 2052, family)).split()
    with pytest.raises(InputError) as err:
        parse_wire(f"{bits} {header}")
    assert len(f"error: input: {err.value}\n".encode()) <= 200


@pytest.mark.parametrize(
    "family, block, message",
    [
        (SQUARE, 4, 3),
        (CUBE, 12, 7),
        (QUOTIENT31, 16, 8),
        (QUATERNION_FAMILY, 6, 3),
    ],
)
def test_block_and_message_lengths(family, block, message):
    assert block_length(family) == block
    assert message_length(family) == message == family_code(family).dim
    slots = message_slots(family)
    assert len(slots) == message
    assert len(set(slots)) == message


def test_wire_roundtrip():
    v = encode((1, 0, 1), QUATERNION_FAMILY)
    line = format_wire(v)
    assert line == "n=2;code=111;scheme=direction 010111\n"
    assert parse_wire(line) == v


@pytest.mark.parametrize(
    "line",
    [
        "n=2;code=;scheme=dashing",  # no bits
        "n=2;code=;scheme=dashing 01",  # wrong width
        "n=2;code=;scheme=dashing 0101 extra",
        "quaternion 01011x",
    ],
)
def test_parse_wire_rejects_malformed_lines(line):
    with pytest.raises(InputError):
        parse_wire(line)


# ---------- encoding ----------


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_encode_is_the_unique_oracle_word_with_the_message_on_the_slots(
    family,
):
    slots = message_slots(family)
    for m in itertools.product((0, 1), repeat=len(slots)):
        matches = [
            w for w in ORACLE_WORDS[family]
            if tuple(w[i] for i in slots) == m
        ]
        assert len(matches) == 1
        assert encode(m, family).bits == matches[0]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_encode_puts_message_bits_on_the_slots(family):
    m = tuple(i % 2 for i in range(message_length(family)))
    v = encode(m, family)
    assert tuple(v.bits[i] for i in message_slots(family)) == m
    assert syndrome(v).ok
    assert decode(v).message == m
    assert decode(v).flips == ()


def test_every_quaternion_message_encodes_uniquely():
    seen = set()
    for m in itertools.product((0, 1), repeat=3):
        v = encode(m, QUATERNION_FAMILY)
        assert syndrome(v).ok
        assert decode(v).message == m
        seen.add(v.bits)
    assert len(seen) == 8
    assert seen == set(oracles.codewords(QUATERNION_FAMILY))


@given(bits=st.tuples(*([st.integers(0, 1)] * 8)))
@settings(max_examples=32, deadline=None)
def test_encode_decode_identity_prop(bits):
    v = encode(bits, QUOTIENT31)
    assert decode(v).message == bits


E8_FAMILY = Family(4, ("11110000", "00001111", "11001100", "10101010"),
                   DASHING)


@pytest.mark.parametrize("family", [Family(1, (), DASHING)]
                         + DASHING_FAMILIES
                         + [Family(4, (), DASHING), E8_FAMILY,
                            Family(6, (), DASHING)])
def test_encode_runs_the_program_the_affine_code_agrees(family, monkeypatch):
    # dashing families encode by the family skeleton's compiled NDXOR
    # program; the affine code's completion, which fill_erasures keeps,
    # gives the same block for every drawn message
    slots = message_slots(family)
    rng = random.Random(len(slots))
    messages = [[rng.randint(0, 1) for _ in slots] for _ in range(20)]
    want = [codec._complete(family, sum(b << i for i, b in zip(slots, m)),
                            sum(1 << i for i in slots)) for m in messages]
    monkeypatch.setattr(codec, "_complete", None)  # never reached
    assert [encode(m, family) for m in messages] == want


@pytest.mark.parametrize("family", DASHING_FAMILIES + [QUATERNION_FAMILY])
def test_encode_errors_are_unchanged(family):
    # a message is refused with its length, else its first bad entry
    m = message_length(family)
    what = f"the message of {family.header()}"
    for message, text in (
            ((1,) * (m - 1), f"need {m} bits for {what}, got {m - 1}"),
            ("01x" * m, f"need {m} bits for {what}, got {3 * m}"),
            ("01x" + "0" * (m - 3), f"bit 2 of {what} must be 0 or 1, "
                                    "got 'x'"),
            ((2,) * m, f"bit 0 of {what} must be 0 or 1, got 2"),
            # a bit must be an int: 1.7 is not read as 1, nor True
            ([1.7] * m, f"bit 0 of {what} must be 0 or 1, got 1.7"),
            ([0] * (m - 1) + [1.0], f"bit {m - 1} of {what} must be 0 or "
                                    "1, got 1.0"),
            ([0, True] * m, f"need {m} bits for {what}, got {2 * m}"),
            ([0, True] + [0] * (m - 2), f"bit 1 of {what} must be 0 or 1, "
                                        "got True"),
            (["1"] * m, f"bit 0 of {what} must be 0 or 1, got '1'")):
        with pytest.raises(InputError) as err:
            encode(message, family)
        assert str(err.value) == text


def test_encode_rejects_wrong_message_length():
    with pytest.raises(InputError):
        encode((1, 0), QUATERNION_FAMILY)


# ---------- syndromes ----------


def test_clean_syndrome_is_empty():
    v = encode((1,) * 7, CUBE)
    syn = syndrome(v)
    assert syn.ok and not syn.violated
    assert syn.describe() == ()
    assert bool(syn) is True


def test_single_flip_violates_exactly_the_checks_on_that_edge():
    v = encode((1, 0, 1, 1, 0, 1, 0), CUBE)
    skeleton = family_skeleton(CUBE)
    for pos, edge in enumerate(skeleton.edges):
        syn = syndrome(v.flip([pos]))
        assert not syn.ok and bool(syn) is False
        hit = [
            f"plaquette colors={p.colors} base={p.base:03b}"
            for p in plaquettes(skeleton) if edge in p.edges
        ]
        assert list(syn.describe()) == hit


def test_direction_syndrome_names_broken_relations():
    v = encode((1, 1, 1), QUATERNION_FAMILY)
    syn = syndrome(v.flip([0]))
    assert not syn.ok
    assert all(isinstance(name, str) and name for name in syn.describe())


# ---------- correction ----------


def test_correct_is_a_no_op_on_clean_blocks():
    v = encode((0, 1, 0, 1, 0, 1, 0, 1), QUOTIENT31)
    fixed = correct(v)
    assert fixed.vector == v and fixed.flips == ()


@pytest.mark.parametrize("family", [CUBE, QUOTIENT31, QUATERNION_FAMILY])
def test_all_single_flips_are_uniquely_corrected(family):
    m = tuple(i % 2 for i in range(message_length(family)))
    v = encode(m, family)
    for pos in range(block_length(family)):
        fixed = correct(v.flip([pos]))
        assert fixed.vector == v
        assert fixed.flips == (pos,)
        assert decode(v.flip([pos])).message == m


def test_square_single_flip_is_ambiguous():
    v = encode((1, 0, 1), SQUARE)
    with pytest.raises(AmbiguousCorrectionError) as err:
        correct(v.flip([2]))
    assert err.value.candidates == ((0,), (1,), (2,), (3,))


def test_quaternion_double_flips_at_one_flip_budget():
    # distance 3: a double flip is never corrected back to the sent
    # word with a single-flip budget.  Opposite same-unit pairs land
    # equidistant from several words and are reported uncorrectable;
    # the other twelve sit at distance one from a DIFFERENT word and
    # decode to it — the classic mis-correction beyond half distance.
    v = encode((1, 0, 1), QUATERNION_FAMILY)
    uncorrectable, miscorrected = [], []
    for pair in itertools.combinations(range(6), 2):
        received = v.flip(pair)
        try:
            fixed = correct(received, max_flips=1)
        except UncorrectableError:
            uncorrectable.append(pair)
        else:
            assert fixed.vector != v
            assert syndrome(fixed.vector).ok
            miscorrected.append(pair)
    assert uncorrectable == [(0, 3), (1, 4), (2, 5)]  # same-unit pairs
    assert len(miscorrected) == 12


def test_quaternion_opposite_double_flip_is_ambiguous_at_two():
    v = encode((1, 0, 1), QUATERNION_FAMILY)
    for pair in [(0, 3), (1, 4), (2, 5)]:
        with pytest.raises(AmbiguousCorrectionError) as err:
            correct(v.flip(pair), max_flips=2)
        assert len(err.value.candidates) == 3
        assert tuple(pair) in err.value.candidates


@pytest.mark.parametrize("family", [CUBE, QUATERNION_FAMILY])
def test_correct_is_nearest_codeword_decoding(family):
    words = ORACLE_WORDS[family]
    n_bits = block_length(family)
    patterns = [
        flips for size in range(3)
        for flips in itertools.combinations(range(n_bits), size)
    ]
    for word in words:
        sent = EdgeBitVector(family, word)
        for pattern in patterns:
            received = sent.flip(pattern)
            # the flip set leading to each codeword within distance 2
            repairs = [
                tuple(i for i, (x, y) in enumerate(zip(c, received.bits))
                      if x != y)
                for c in oracles.codewords_within(received.bits, words, 2)
            ]
            for max_flips in (1, 2):
                within = [f for f in repairs if len(f) <= max_flips]
                least = min(map(len, within), default=None)
                nearest = sorted(f for f in within if len(f) == least)
                if not nearest:
                    with pytest.raises(UncorrectableError):
                        correct(received, max_flips)
                elif len(nearest) > 1:
                    with pytest.raises(AmbiguousCorrectionError) as err:
                        correct(received, max_flips)
                    assert err.value.candidates == tuple(nearest)
                else:
                    fixed = correct(received, max_flips)
                    assert fixed.flips == nearest[0]
                    assert fixed.vector == received.flip(nearest[0])


def test_oversized_family_is_refused_before_building():
    with pytest.raises(SizeGuardError):
        parse_family("n=40;code=;scheme=dashing")


def test_correct_rejects_bad_budget():
    v = encode((1, 0, 1), SQUARE)
    with pytest.raises(InputError):
        correct(v, max_flips=-1)


# ---------- erasures ----------


def test_square_erasures_succeed_exactly_when_survivors_span():
    v = encode((1, 1, 0), SQUARE)
    skeleton = family_skeleton(SQUARE)
    for r in range(5):
        for erased in itertools.combinations(range(4), r):
            survivors = [
                (e.u, e.v)
                for i, e in enumerate(skeleton.edges)
                if i not in erased
            ]
            should_work = oracles.spans_all_nodes(skeleton.nodes, survivors)
            if should_work:
                assert fill_erasures(v, erased) == v
            else:
                with pytest.raises(UnderDeterminedError):
                    fill_erasures(v, erased)


def test_erasing_one_whole_color_class_is_under_determined():
    for family in (CUBE, QUOTIENT31):
        m = tuple(i % 2 for i in range(message_length(family)))
        v = encode(m, family)
        skeleton = family_skeleton(family)
        erased = [
            i for i, e in enumerate(skeleton.edges) if e.color == 1
        ]
        with pytest.raises(UnderDeterminedError):
            fill_erasures(v, erased)


def test_erasing_everything_but_a_spanning_seed_recovers():
    for family in DASHING_FAMILIES:
        m = tuple(i % 2 for i in range(message_length(family)))
        v = encode(m, family)
        keep = set(message_slots(family))
        erased = [i for i in range(block_length(family)) if i not in keep]
        assert fill_erasures(v, erased) == v


def test_direction_erasures():
    v = encode((1, 0, 1), QUATERNION_FAMILY)
    # erasing the three non-slot positions recovers them uniquely
    erased = [i for i in range(6) if i not in message_slots(QUATERNION_FAMILY)]
    assert fill_erasures(v, erased) == v
    # erasing five of six leaves several valid completions
    with pytest.raises(UnderDeterminedError):
        fill_erasures(v, range(5))
    # corrupting a survivor can rule out every completion
    broken = v.flip([0])
    with pytest.raises((ContradictionError, UnderDeterminedError)):
        fill_erasures(broken, [3, 4])


def assert_fill_matches_oracle(received, erased):
    """fill_erasures follows the agreeing-codewords oracle: none is a
    contradiction, several leave the positions where they differ
    unresolved, exactly one is the fill."""
    agree = oracles.codewords_agreeing(
        received.bits, set(erased), ORACLE_WORDS[received.family]
    )
    if not agree:
        with pytest.raises(ContradictionError):
            fill_erasures(received, erased)
    elif len(agree) > 1:
        with pytest.raises(UnderDeterminedError) as err:
            fill_erasures(received, erased)
        differ = tuple(
            i for i in range(len(received.bits))
            if len({w[i] for w in agree}) > 1
        )
        assert err.value.unresolved == differ
    else:
        assert fill_erasures(received, erased).bits == agree[0]


@pytest.mark.parametrize("family", [SQUARE, CUBE, QUATERNION_FAMILY])
def test_fill_erasures_matches_oracle_on_every_pattern(family):
    sent = encode(tuple(i % 2 for i in range(message_length(family))), family)
    n_bits = len(sent.bits)
    for mask in range(1 << n_bits):
        assert_fill_matches_oracle(
            sent, [i for i in range(n_bits) if mask >> i & 1]
        )


@given(
    message=st.integers(0, 255),
    mask=st.integers(0, (1 << 16) - 1),
    flip=st.none() | st.integers(0, 15),
)
@settings(max_examples=150, deadline=None)
def test_fill_erasures_matches_oracle_on_sampled_patterns(message, mask, flip):
    sent = encode([message >> i & 1 for i in range(8)], QUOTIENT31)
    received = sent if flip is None else sent.flip([flip])
    assert_fill_matches_oracle(
        received, [i for i in range(16) if mask >> i & 1]
    )


def test_fill_erasures_validates_positions():
    v = encode((1, 1, 0), SQUARE)
    with pytest.raises(InputError):
        fill_erasures(v, [9])


@pytest.mark.parametrize("position", [1.5, "x", "1", True, None])
def test_positions_must_be_plain_integers(position):
    v = encode((1, 1, 0), SQUARE)
    for call, what in ((fill_erasures, "erased"),
                       (EdgeBitVector.flip, "flip")):
        with pytest.raises(InputError) as err:
            call(v, [0, position])
        assert str(err.value) == (
            f"{what} position {position!r} is not an integer")


# ---------- bits and counts of the wrong type ----------


@pytest.mark.parametrize("bit", [1.0, True])
def test_edge_bit_vector_takes_int_bits_only(bit):
    # with 1.0 the block would print as 1.01.0..., which parse_wire rejects
    bits = (0,) * 5 + (bit,) * 7
    with pytest.raises(InputError) as err:
        EdgeBitVector(CUBE, bits)
    assert str(err.value) == (
        f"bit 5 of {CUBE.header()} must be 0 or 1, got {bit!r}")


@pytest.mark.parametrize("bits", [(0,) * 11, (1.0,) * 13])
def test_a_block_of_the_wrong_length_gives_its_length_not_its_bits(bits):
    with pytest.raises(InputError) as err:
        EdgeBitVector(CUBE, bits)
    assert str(err.value) == (
        f"need 12 bits for {CUBE.header()}, got {len(bits)}")
    # so does a wire line of that length, however long the block
    with pytest.raises(InputError) as err:
        parse_wire(f"{CUBE.header()} {'1' * len(bits)}")
    assert str(err.value) == (
        f"need 12 bits for {CUBE.header()}, got {len(bits)}")


@pytest.mark.parametrize("payload, position", [
    ("x00000000000", 0), ("0101012", 6), ("01a1b1", 2),
    ("1" * 5000 + "+" + "1" * 5000, 5000),
])
def test_parse_wire_names_the_first_character_that_is_not_a_bit(
        payload, position):
    # the payload padded to the 11264-bit block of the n=11 cube
    family = Family(11, (), DASHING)
    payload += "0" * (block_length(family) - len(payload))
    with pytest.raises(InputError) as err:
        parse_wire(f"{family.header()} {payload}")
    assert str(err.value) == (
        f"bit {position} of {family.header()} must be 0 or 1, "
        f"got {payload[position]!r}")


@pytest.mark.parametrize("budget", [1.5, "2", True, None])
def test_flip_budget_must_be_an_integer(budget):
    sent = encode((1, 0, 1, 1, 0, 1, 0), CUBE)
    for call in (correct, decode):
        for v in (sent, sent.flip([0])):
            with pytest.raises(InputError) as err:
                call(v, max_flips=budget)
            assert str(err.value) == (
                f"max_flips must be an integer, got {budget!r}")


@pytest.mark.parametrize("flips", [1.5, "2", True, None])
def test_injected_flip_count_must_be_an_integer(flips):
    v = encode((1, 0, 1, 1, 0, 1, 0), CUBE)
    with pytest.raises(InputError) as err:
        inject_errors(v, flips, seed=3)
    assert str(err.value) == f"flips must be an integer, got {flips!r}"


@pytest.mark.parametrize("bit", [1.7, 1.0, True, "1"])
def test_quaternion_direction_bits_must_be_ints(bit):
    bits = (1, 1, 1, 0, 1, bit)
    with pytest.raises(InputError) as err:
        directions_from_vector(bits)
    assert str(err.value) == (
        f"bit 5 of quaternion directions must be 0 or 1, got {bit!r}")
    assert directions_from_vector((1, 1, 1, 0, 1, 0))


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0])
def test_quaternion_matrix_and_completion_bits_must_be_ints(bit):
    # a bool or a float equals 1 or 0 but is no direction bit
    edge = quaternion.quaternion_edges()[0]
    directions = dict(directions_from_vector((1, 1, 1, 0, 1, 0)))
    directions[edge] = bit
    message = f"direction for {edge} must be 0 or 1, got {bit!r}"
    for call, arg in ((quaternion.matrices_from_directions, directions),
                      (quaternion.quaternion_baobab_completions,
                       {edge: bit})):
        with pytest.raises(InputError) as err:
            call(arg)
        assert str(err.value) == message
    directions[edge] = int(bit)
    assert quaternion.matrices_from_directions(directions)
    assert len(quaternion.quaternion_baobab_completions({edge: int(bit)})) == 32


# ---------- code parameters ----------


def test_quaternion_code_is_built_without_checking_orientations(monkeypatch):
    # the canonical orientation plus the span of the four vertex
    # switches, with no orientation run through the relations
    def refuse(*args):
        raise AssertionError("check_quaternion called")

    for module in (algebra, quaternion):
        monkeypatch.setattr(module, "check_quaternion", refuse)
    code = family_code.__wrapped__(QUATERNION_FAMILY)
    words = [sum(b << i for i, b in enumerate(w))
             for w in ORACLE_WORDS[QUATERNION_FAMILY]]
    spanned = oracles.affine_code_from_words(words, 6)
    assert oracles.code_words(code) == sorted(words) == oracles.code_words(
        spanned)
    assert code.basis == (42, 27, 7)
    # residues are canonical, so they equal those of the oracle's span
    residue = oracles.residue
    assert [residue(code, w) for w in range(64)] == [
        residue(spanned, w) for w in range(64)]
    assert {w for w in range(64) if not residue(code, w)} == set(words)
    units = oracles.unit_residues(code)
    assert units == oracles.unit_residues(spanned)
    assert all(residue(code, w ^ 1 << i) == units[i]
               for w in words for i in range(6))



def test_square_codewords_match_brute_force():
    from adinkra import plaquettes

    skeleton = family_skeleton(SQUARE)
    index = {e: i for i, e in enumerate(skeleton.edges)}
    quads = [tuple(index[e] for e in p.edges) for p in plaquettes(skeleton)]
    brute = set(oracles.brute_force_dashings(4, quads))
    assert set(oracles.codewords(SQUARE)) == brute
    assert len(brute) == 8


@pytest.mark.parametrize(
    "family, expected",
    [(SQUARE, 2), (CUBE, 3), (QUOTIENT31, 4), (QUATERNION_FAMILY, 3)],
)
def test_min_distances(family, expected):
    assert min_distance(family) == expected
    assert oracles.naive_min_distance(oracles.codewords(family)) == expected


RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")


def test_length_16_family():
    # RM(1,4) quotient: 2048 nodes, 16 colors, 61440 plaquettes
    family = parse_family(f"n=11;code={','.join(RM14)};scheme=dashing")
    assert (block_length(family), message_length(family)) == (16384, 2052)
    rng = random.Random(16)
    message = tuple(rng.randint(0, 1) for _ in range(2052))
    v = encode(message, family)
    assert syndrome(v).ok
    assert decode(v) == codec.DecodeResult(message, ())
    # a flipped edge lies on one plaquette per other color
    assert len(syndrome(v.flip([rng.randrange(16384)])).violated) == 15
    erased = rng.sample(range(16384), 3)
    assert fill_erasures(v.flip(erased), erased) == v
    assert min_distance(family) == 16


def test_length_16_errors_are_one_short_line():
    # no error quotes the 16384-bit block, the 2052-bit message or the
    # 61440 violated checks of the all-zero block
    family = parse_family(f"n=11;code={','.join(RM14)};scheme=dashing")
    message = "1" * 2052
    sent = format_wire(encode(message, family))
    header = family.header()
    blocks = {
        "message": (lambda: encode(message[:-1] + "2", family),
                    InputError, f"bit 2051 of the message of {header} must "
                                "be 0 or 1, got '2'"),
        "stray space": (lambda: parse_wire(sent[:300] + " " + sent[300:]),
                        InputError, "wire line must be '<family-header> "
                                    "<bits>', got 3 fields"),
        "all zero": (lambda: decode(EdgeBitVector(family, (0,) * 16384),
                                    max_flips=0),
                     UncorrectableError, "detected-uncorrectable: no "
                     "correction within 0 flip(s); 61440 checks violated, "
                     "the first 3: plaquette colors=(1, 2) base="),
    }
    for name, (call, kind, start) in blocks.items():
        with pytest.raises(kind) as err:
            call()
        text = str(err.value)
        assert (name, text[:len(start)]) == (name, start)
        assert len(text) < (300 if kind is InputError else 1000)


def test_no_flip_budget_builds_no_unit_residues(monkeypatch):
    # the search reads the checks through the bits it tries, at every
    # budget: no residue of the family's affine code, per bit or whole
    assert not hasattr(AffineCode, "unit_residues")
    assert not hasattr(AffineCode, "residue")

    def refuse(*args):
        raise AssertionError("residue called")

    sent = encode((1, 0, 1, 1, 0, 1, 0), CUBE)
    monkeypatch.setattr(oracles, "residue", refuse)
    for flips, max_flips in (([0, 7, 11], 0), ([0, 5], 1)):
        damaged = sent.flip(flips)
        with pytest.raises(UncorrectableError) as err:
            correct(damaged, max_flips)
        # the count of violated checks and the first three of them
        violated = syndrome(damaged).describe()
        first = ", the first 3" if max_flips == 0 else ""
        assert str(err.value) == (
            f"detected-uncorrectable: no correction within {max_flips} "
            f"flip(s); {len(violated)} checks violated{first}: "
            + ", ".join(violated[:3]))
    for flips, max_flips in (([5], 1), ([5], 3), ([], 0)):
        assert correct(sent.flip(flips), max_flips).flips == tuple(flips)
    assert len(syndrome(sent.flip([0, 7, 11])).violated) == 4


class CountedChecks:
    """Stands in for `codec.PlaquetteCheck` and counts the checks built."""

    def __init__(self, monkeypatch):
        self.built = 0
        self.real = codec.PlaquetteCheck
        monkeypatch.setattr(codec, "PlaquetteCheck", self)

    def __call__(self, *args):
        self.built += 1
        return self.real(*args)


def test_an_uncorrectable_block_describes_only_the_checks_it_shows(
        monkeypatch):
    family = parse_family(f"n=11;code={','.join(RM14)};scheme=dashing")
    rng = random.Random(26)
    sent = encode(tuple(rng.randint(0, 1) for _ in range(2052)), family)
    cases = [(EdgeBitVector(family, (0,) * 16384), 0),
             (sent.flip(rng.sample(range(16384), 3)), 0)]
    cases += [(encode((1, 0, 1, 1, 0, 1, 0), CUBE).flip(flips), 0)
              for flips in ([0], [0, 7, 11], [0, 1, 2, 3, 4])]
    cases.append((encode((1, 0, 1), QUATERNION_FAMILY).flip([0, 1]), 0))
    for block, max_flips in cases:
        violated = syndrome(block).describe()
        counted = CountedChecks(monkeypatch)
        with pytest.raises(UncorrectableError) as err:
            correct(block, max_flips)
        assert counted.built == (
            min(3, len(violated)) if block.family.scheme == DASHING else 0)
        first = ", the first 3" if len(violated) > 3 else ""
        assert str(err.value) == (
            f"detected-uncorrectable: no correction within {max_flips} "
            f"flip(s); {len(violated)} checks violated{first}: "
            + ", ".join(violated[:3]))
        monkeypatch.undo()


# ---------- the bounded search ----------

E8 = Family(4, ("11110000", "00001111", "11001100", "10101010"), DASHING)
SEARCH_FAMILIES = [Family(1, (), DASHING), SQUARE, CUBE, QUOTIENT31,
                   Family(4, (), DASHING), Family(5, (), DASHING),
                   QUATERNION_FAMILY]


def outcome(call, *args):
    """What a correction call gives: its result, or its error's type,
    text and candidates."""
    try:
        return call(*args)
    except (AmbiguousCorrectionError, UncorrectableError) as err:
        return type(err), str(err), getattr(err, "candidates", None)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_equals_the_walk(data):
    # n1 has no checks, n2 one plaquette, the quaternion its 3 triangles
    family = data.draw(st.sampled_from(SEARCH_FAMILIES))
    n_bits = block_length(family)
    message = data.draw(st.lists(st.integers(0, 1),
                                 min_size=message_length(family),
                                 max_size=message_length(family)))
    flips = data.draw(st.lists(st.integers(0, n_bits - 1), min_size=1,
                               max_size=5, unique=True))
    max_flips = data.draw(st.sampled_from((3, 2, 1, 0)))
    received = encode(message, family).flip(flips)
    want = outcome(oracles.naive_correct, received, max_flips)
    assert outcome(correct, received, max_flips) == want
    if isinstance(want, codec.Correction):
        slots = message_slots(family)
        want = codec.DecodeResult(
            tuple(want.vector.bits[i] for i in slots), want.flips)
    assert outcome(decode, received, max_flips) == want


@pytest.mark.parametrize("family", [QUOTIENT31, QUATERNION_FAMILY])
def test_search_equals_the_walk_on_every_pattern(family):
    sent = encode((1, 0, 1, 1, 0, 1, 0, 0)[:message_length(family)], family)
    for size in range(4):
        for flips in itertools.combinations(range(block_length(family)),
                                            size):
            received = sent.flip(flips)
            for max_flips in (1, 2, 3):
                assert outcome(correct, received, max_flips) == outcome(
                    oracles.naive_correct, received, max_flips)


def test_syndrome_mask_marks_the_violated_checks():
    rng = random.Random(33)
    for family in SEARCH_FAMILIES:
        checks = codec._family_checks(family)
        code = family_code(family)
        n_bits = block_length(family)
        for _ in range(20):
            block = EdgeBitVector(family, [rng.randint(0, 1)
                                           for _ in range(n_bits)])
            mask = checks.mask(block.bits)
            word = sum(b << i for i, b in enumerate(block.bits))
            assert (mask == 0) == (oracles.residue(code, word) == 0)
            if family.scheme == DASHING:
                assert syndrome(block).describe() == (
                    oracles.naive_violations(block))
                assert mask.bit_count() == len(syndrome(block).violated)


def test_quaternion_checks_come_from_its_graph(monkeypatch):
    # the triangles want the parities of CANONICAL_DIRECTIONS and the
    # syndrome names the broken relations, so correcting, decoding and
    # the distance read no affine code
    def results():
        out = []
        for word in range(64):
            block = EdgeBitVector(QUATERNION_FAMILY,
                                  [word >> i & 1 for i in range(6)])
            out.append((syndrome(block), min_distance(QUATERNION_FAMILY),
                        *(outcome(call, block, max_flips)
                          for call in (correct, decode)
                          for max_flips in range(3))))
        return out

    def refuse(family):
        raise AssertionError("family_code called")

    want = results()
    for cached in (codec._family_checks, codec.family_code,
                   codec.message_slots, codec._family_skeleton,
                   codec._quotient_code):
        cached.cache_clear()
    monkeypatch.setattr(codec, "family_code", refuse)
    assert results() == want


def rm14_block(seed):
    family = parse_family(f"n=11;code={','.join(RM14)};scheme=dashing")
    rng = random.Random(seed)
    return encode(tuple(rng.randint(0, 1) for _ in range(2052)), family), rng


def test_length_16_corrects_up_to_seven_flips():
    # distance 16: every pattern of up to 7 flips is the one nearest repair
    sent, rng = rm14_block(33)
    for count in range(1, 8):
        flips = tuple(sorted(rng.sample(range(16384), count)))
        fixed = correct(sent.flip(flips), max_flips=7)
        assert (fixed.flips, fixed.vector) == (flips, sent)


def test_length_16_half_a_vertex_switch_is_ambiguous():
    # the 16 edges at node 0 are a codeword's difference: flipping 8 of
    # them lies 8 flips from two codewords
    sent, rng = rm14_block(34)
    edges = family_skeleton(sent.family).edges
    at_zero = [i for i, e in enumerate(edges) if e.u == 0]
    assert at_zero == list(range(16))
    flips = tuple(sorted(rng.sample(at_zero, 8)))
    rest = tuple(i for i in at_zero if i not in flips)
    with pytest.raises(AmbiguousCorrectionError) as err:
        correct(sent.flip(flips), max_flips=8)
    assert err.value.candidates == tuple(sorted((flips, rest)))
    assert str(err.value) == ("2 distinct 8-bit corrections clear the "
                              "syndrome")


@pytest.mark.parametrize("family, weight, size, flips", [
    (CUBE, 4, 2, None), (CUBE, 4, 3, None),
    (QUATERNION_FAMILY, 3, 2, (0, 3)),
])
def test_size_guard_refuses_exactly_above_the_search_bound(
        monkeypatch, family, weight, size, flips):
    # no repair below `size`: the all-zero cube block violates all six
    # faces, and the quaternion's opposite pair is one flip from none
    if flips is None:
        block = EdgeBitVector(family, (0,) * block_length(family))
    else:
        block = encode((1, 0, 1), family).flip(flips)
    bits = (weight ** size - 1).bit_length()
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", str(bits - 1))
    with pytest.raises(SizeGuardError) as err:
        correct(block, size)
    assert str(err.value) == (
        f"correction walk of {size}-flip sets needs 2**{bits} words, above "
        f"the guard of 2**{bits - 1}; set ADINKRA_SIZE_GUARD to raise the "
        "limit")
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", str(bits))
    assert outcome(correct, block, size) == outcome(
        oracles.naive_correct, block, size)


def test_library_blocks_equal_their_validated_twins():
    # flips, program runs, completions and corrections are built without
    # re-reading their bits; each equals the block the public
    # constructor makes from the same bits
    rng = random.Random(35)
    for family in SEARCH_FAMILIES + [E8]:
        n_bits = block_length(family)
        sent = encode([rng.randint(0, 1)
                       for _ in range(message_length(family))], family)
        erased = rng.sample(range(n_bits), n_bits > 1)  # n1: no check
        blocks = [sent, sent.flip([0]), fill_erasures(sent, erased),
                  inject_errors(sent, 1, seed=35)[0]]
        try:
            blocks.append(correct(sent.flip([n_bits - 1])).vector)
        except AmbiguousCorrectionError:  # the square: distance 2
            assert family == SQUARE
        for block in blocks:
            twin = EdgeBitVector(family, list(block.bits))
            assert type(block.bits) is tuple
            assert {int} == set(map(type, block.bits))
            assert (block, hash(block)) == (twin, hash(twin))


def test_inject_errors_is_deterministic():
    v = encode((1, 0, 1, 1, 0, 1, 0), CUBE)
    hit1, pos1 = inject_errors(v, 3, seed=42)
    hit2, pos2 = inject_errors(v, 3, seed=42)
    assert hit1 == hit2 and pos1 == pos2
    assert len(pos1) == 3 and list(pos1) == sorted(pos1)
    assert hit1.flip(pos1) == v
    _, other = inject_errors(v, 3, seed=43)
    assert other != pos1  # different draw for a different seed
    with pytest.raises(InputError):
        inject_errors(v, 99, seed=1)
