"""The affine GF(2) code behind counting, codewords and distance, and
the size guard on its exhaustive walks."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adinkra import (
    AffineCode,
    InputError,
    SizeGuardError,
    build_chromotopology,
    count_valid_dashings,
    plaquettes,
)
from adinkra._kernels import check_guard, guard_bits
from adinkra.codec import (
    DASHING,
    Family,
    QUATERNION_FAMILY,
    codewords,
    family_skeleton,
    min_distance,
)
from adinkra.quaternion import COLOR_UNITS

E8_CODE = ("11110000", "00001111", "11001100", "10101010")
N4 = Family(4, (), DASHING)
E8 = Family(4, E8_CODE, DASHING)


def brute_force_solutions(masks, n_bits):
    return [
        x for x in range(1 << n_bits)
        if all(bin(x & m).count("1") % 2 == 1 for m in masks)
    ]


def as_int(bits):
    return sum(b << i for i, b in enumerate(bits))


def plaquette_quads(skeleton):
    index = {e: i for i, e in enumerate(skeleton.edges)}
    return [tuple(index[e] for e in p.edges) for p in plaquettes(skeleton)]


# ---------- the code object ----------


def test_enumerate_valid_tiny_case():
    # odd parity on the low two bits: exactly one of them set
    code = AffineCode.from_checks([0b11], 3)
    assert code.words() == (0b001, 0b010, 0b101, 0b110)
    assert code.count() == 4 and code.dim == 2


def test_enumerate_valid_no_masks_returns_everything():
    code = AffineCode.from_checks([], 3)
    assert code.words() == tuple(range(8))


def test_inconsistent_checks_have_no_code():
    # x0 + x1 = 1, x0 = 1, x1 = 1 has no solution
    assert AffineCode.from_checks([0b11, 0b01, 0b10], 2) is None
    with pytest.raises(InputError):
        AffineCode.from_checks([0b100], 2)


def test_min_distance_requires_two_words():
    with pytest.raises(InputError):
        AffineCode.from_words([5], 3).min_distance()
    with pytest.raises(InputError):
        AffineCode.from_checks([0b01, 0b10], 2).min_distance()


def test_min_distance_small():
    assert AffineCode.from_words([0, 3], 2).min_distance() == 2
    words = [0b0000, 0b0111, 0b1011, 0b1100]
    code = AffineCode.from_words(words, 4)
    assert code.words() == tuple(sorted(words))
    assert code.min_distance() == oracles.naive_min_distance(
        [tuple((w >> i) & 1 for i in range(4)) for w in words]
    ) == 2


def test_from_words_rejects_non_affine_sets():
    with pytest.raises(InputError):
        AffineCode.from_words([0, 1, 2], 2)
    with pytest.raises(InputError):
        AffineCode.from_words([], 2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6)
        )
    )
)
def test_from_checks_matches_brute_force(case):
    n_bits, masks = case
    brute = brute_force_solutions(masks, n_bits)
    code = AffineCode.from_checks(masks, n_bits)
    if not brute:
        assert code is None
        return
    assert code.words() == tuple(brute)
    if len(brute) > 1:
        as_bits = [tuple((w >> i) & 1 for i in range(n_bits)) for w in brute]
        assert code.min_distance() == oracles.naive_min_distance(as_bits)
    assert AffineCode.from_words(brute, n_bits).words() == tuple(brute)


# ---------- families ----------


@pytest.mark.parametrize("n, gens, edges", [(4, (), 32), (4, E8_CODE, 64)])
def test_count_is_two_to_the_kernel_dimension(n, gens, edges):
    skeleton = build_chromotopology(n, gens)
    masks = [sum(1 << i for i in quad) for quad in plaquette_quads(skeleton)]
    assert len(skeleton.edges) == edges
    expected = 2 ** (edges - oracles.gf2_rank(masks))
    assert count_valid_dashings(skeleton) == expected
    assert expected == 2 ** (2 ** n + len(gens) - 1)


def test_n4_min_distance_matches_naive_search():
    quads = oracles.cube_plaquette_quads(4)
    assert oracles.min_even_flip_set(32, quads, 4) == 4
    assert min_distance(N4) == 4


def test_e8_min_distance():
    assert min_distance(E8) == 8


@pytest.mark.parametrize(
    "family",
    [Family(2, (), DASHING), Family(3, (), DASHING),
     Family(3, ("1111",), DASHING)],
)
def test_dashing_codewords_match_brute_force(family):
    skeleton = family_skeleton(family)
    brute = oracles.brute_force_dashings(
        len(skeleton.edges), plaquette_quads(skeleton)
    )
    assert codewords(family) == tuple(sorted(brute, key=as_int))


def test_quaternion_codewords_match_oracle():
    words = oracles.quaternion_direction_words(
        [
            (e.u, e.v, COLOR_UNITS[e.color])
            for e in family_skeleton(QUATERNION_FAMILY).edges
        ]
    )
    assert codewords(QUATERNION_FAMILY) == tuple(sorted(words, key=as_int))


# ---------- size guard ----------


def test_size_guard(monkeypatch):
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "10")
    assert guard_bits() == 10
    with pytest.raises(SizeGuardError) as err:
        check_guard(12, "enumeration")
    assert "ADINKRA_SIZE_GUARD" in str(err.value)
    check_guard(10, "enumeration")  # at the limit is fine
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "zap")
    with pytest.raises(InputError):
        guard_bits()
    monkeypatch.delenv("ADINKRA_SIZE_GUARD")
    assert guard_bits() == 20


def test_distance_walk_is_guarded(monkeypatch):
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "14")
    with pytest.raises(SizeGuardError):
        min_distance(N4)  # kernel dimension 15
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "15")
    assert min_distance(N4) == 4
