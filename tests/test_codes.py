"""GF(2) linear algebra and binary code validation."""

import re
import time

import pytest
from hypothesis import given, strategies as st

import oracles
from adinkra import (
    DoublyEvenCode,
    InputError,
    LinearBinaryCode,
    bit_string,
    canonical_representative,
    color_bit,
    gf2_rref,
    is_doubly_even,
    parse_bit_string,
    weight,
)


def test_weight_counts_set_bits():
    assert [weight(x) for x in (0, 1, 0b1111, 0b10110)] == [0, 1, 4, 3]


def test_color_bit_is_msb_first():
    # color 1 flips the top bit of a length-4 label
    assert color_bit(1, 4) == 0b1000
    assert color_bit(4, 4) == 0b0001
    with pytest.raises(InputError):
        color_bit(5, 4)
    with pytest.raises(InputError):
        color_bit(0, 4)


def test_bit_string_roundtrip():
    assert bit_string(0b1011, 4) == "1011"
    assert bit_string(0b1011, 6) == "001011"
    assert parse_bit_string("1011") == (0b1011, 4)
    with pytest.raises(InputError):
        parse_bit_string("10a1")
    with pytest.raises(InputError):
        parse_bit_string("")


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=5)
)
def test_rref_preserves_span_and_is_independent(rows):
    reduced = gf2_rref(rows)
    assert oracles.xor_span(reduced) == oracles.xor_span(rows)
    assert oracles.gf2_rank(reduced) == len(reduced)
    # leading bits strictly decrease
    lengths = [r.bit_length() for r in reduced]
    assert lengths == sorted(lengths, reverse=True)


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=4)
)
def test_is_doubly_even_matches_oracle(rows):
    assert is_doubly_even(rows) == oracles.doubly_even(rows)


def test_is_doubly_even_accepts_strings():
    assert is_doubly_even(["1111"])
    assert not is_doubly_even(["111"])
    assert is_doubly_even(["11110000", "00001111"])
    # spans 10010110 etc. — weight of every sum must stay 0 mod 4
    assert is_doubly_even(["11110000", "10101010"]) == oracles.doubly_even(
        [0b11110000, 0b10101010]
    )


def test_linear_code_requires_rref_and_independence():
    LinearBinaryCode(3, (0b111,))
    with pytest.raises(InputError):
        LinearBinaryCode(3, (0b111, 0b111))  # dependent
    with pytest.raises(InputError):
        LinearBinaryCode(3, (0b011, 0b111))  # not leading-bit sorted
    with pytest.raises(InputError):
        LinearBinaryCode(3, (0b1111,))  # wider than length


def test_doubly_even_code_rejects_bad_weights():
    DoublyEvenCode(4, (0b1111,))
    with pytest.raises(InputError) as err:
        DoublyEvenCode(3, (0b111,))
    assert "111" in str(err.value)
    # generators of weight 4 whose sum has weight 6: the span breaks
    # the weight rule even though each generator satisfies it
    assert not oracles.doubly_even([0b10111000, 0b01100101])
    with pytest.raises(InputError):
        DoublyEvenCode(8, (0b10111000, 0b01100101))
    # and a genuinely doubly even two-generator code builds fine
    DoublyEvenCode(8, (0b11110000, 0b00001111))


def test_code_from_strings_and_back():
    code = DoublyEvenCode.from_strings(["1111"])
    assert code.k == 1
    assert code.generator_strings() == ("1111",)
    assert code.generators == (0b1111,)


def test_canonical_representative_square_code():
    code = DoublyEvenCode(4, (0b1111,))
    assert canonical_representative(0b0000, code) == 0
    assert canonical_representative(0b1111, code) == 0
    assert canonical_representative(0b1110, code) == 0b0001


@given(st.integers(min_value=0, max_value=15))
def test_canonical_representative_is_coset_invariant(label):
    code = DoublyEvenCode(4, (0b1111,))
    rep = canonical_representative(label, code)
    span = oracles.xor_span(code.generators)
    for word in span:
        assert canonical_representative(label ^ word, code) == rep
    assert rep == min(label ^ w for w in span)


@given(
    st.integers(1, 10).flatmap(
        lambda length: st.tuples(
            st.just(length),
            st.lists(st.integers(0, (1 << length) - 1), max_size=5),
            st.integers(0, (1 << length) - 1),
        )
    )
)
def test_canonical_representative_is_the_coset_minimum(case):
    length, rows, label = case
    code = LinearBinaryCode(length, gf2_rref(rows))
    assert canonical_representative(label, code) == min(
        label ^ w for w in oracles.xor_span(rows)
    )


def test_doubly_even_check_does_not_walk_the_span():
    # 40 disjoint weight-4 blocks span a doubly even code of 2**40
    # words; moving one bit of the last block into the first leaves
    # every generator at weight 4 but makes one pair overlap oddly
    from adinkra.codec import parse_family

    blocks = [0b1111 << (4 * i) for i in range(40)]
    assert is_doubly_even(blocks)
    blocks[-1] ^= (1 << 156) | 1
    assert not is_doubly_even(blocks)
    gens = ",".join(bit_string(g, 160) for g in blocks)
    start = time.perf_counter()
    with pytest.raises(InputError) as err:
        parse_family(f"n=120;code={gens};scheme=dashing")
    assert time.perf_counter() - start < 0.1
    assert re.fullmatch(
        r"codeword [01]{160} has weight \d+, not divisible by 4",
        str(err.value),
    )
