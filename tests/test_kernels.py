"""The affine GF(2) code behind counting, codewords and distance, and
the size guard on graphs."""

import inspect
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import adinkra
import oracles
from adinkra import (
    AffineCode,
    InputError,
    SizeGuardError,
    build_chromotopology,
    build_quotient_skeleton,
    count_valid_dashings,
    plaquettes,
)
from adinkra._kernels import check_guard, guard_bits
from adinkra import baobab, codec
from adinkra.codec import (
    DASHING,
    Family,
    QUATERNION_FAMILY,
    family_code,
    family_skeleton,
    min_distance,
    parse_family,
)
from adinkra.codes import LinearBinaryCode, bit_string, gf2_rref
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
    code = oracles.affine_code_from_words([0b110, 0b001, 0b101, 0b010], 3)
    assert oracles.code_words(code) == [0b001, 0b010, 0b101, 0b110]
    assert 1 << code.dim == 4 and code.dim == 2


def test_enumerate_valid_no_masks_returns_everything():
    code = oracles.affine_code_from_words(range(8), 3)
    assert oracles.code_words(code) == list(range(8))


def test_basis_is_kept_in_echelon_form():
    # dependent and unordered rows give the same code as their echelon
    code = AffineCode(4, 0b0001, (0b0110, 0b0011, 0b0101, 0b0000))
    assert code.basis == (0b0110, 0b0011) and code.dim == 2
    assert oracles.code_words(code) == [1, 2, 4, 7]


def kernel_min_weight(code):
    return min(w.bit_count() for w in oracles.xor_span(code.basis) if w)


def test_min_distance_small():
    # the kernel's least weight is the least distance between words
    assert kernel_min_weight(oracles.affine_code_from_words([0, 3], 2)) == 2
    words = [0b0000, 0b0111, 0b1011, 0b1100]
    code = oracles.affine_code_from_words(words, 4)
    assert oracles.code_words(code) == sorted(words)
    assert kernel_min_weight(code) == oracles.naive_min_distance(
        [tuple((w >> i) & 1 for i in range(4)) for w in words]
    ) == 2


def test_no_code_is_walked():
    # nothing in the library lists a code's 2**dim words: distances are
    # closed form, and the walks the tests need live in the oracles
    for owner, name in ((LinearBinaryCode, "span"), (adinkra, "gf2_span"),
                        (adinkra.codes, "gf2_span"), (baobab, "dashing_code")):
        with pytest.raises(AttributeError):
            getattr(owner, name)
    # nor builds one from its words (no `words`, `min_distance` or
    # `from_words`): a code is an offset and kernel rows, filled in from
    # known bits
    assert {name for name in dir(AffineCode(3, 0, ()))
            if not name.startswith("_")} == {
                "n_bits", "offset", "basis", "dim", "complete"}
    # and one function builds every affine code the library uses
    calls = {p.name: p.read_text().count("AffineCode(")
             for p in Path(adinkra.__file__).parent.glob("*.py")}
    assert {name for name, count in calls.items() if count} == {"codec.py"}
    assert calls["codec.py"] == inspect.getsource(family_code).count(
        "AffineCode(")


def test_from_words_rejects_non_affine_sets():
    with pytest.raises(InputError):
        oracles.affine_code_from_words([0, 1, 2], 2)
    with pytest.raises(InputError):
        oracles.affine_code_from_words([], 2)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6)
        )
    )
)
def test_from_words_matches_brute_force(case):
    n_bits, masks = case
    brute = brute_force_solutions(masks, n_bits)
    if not brute:
        return
    code = oracles.affine_code_from_words(brute, n_bits)
    assert oracles.code_words(code) == brute
    if len(brute) > 1:
        as_bits = [tuple((w >> i) & 1 for i in range(n_bits)) for w in brute]
        assert kernel_min_weight(code) == oracles.naive_min_distance(as_bits)


checked_codes = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=6),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
    )
)


@settings(max_examples=100, deadline=None)
@given(checked_codes)
def test_residue_is_linear_and_zero_exactly_on_codewords(case):
    n_bits, masks, x, y = case
    brute = set(brute_force_solutions(masks, n_bits))
    if not brute:
        return
    code = oracles.affine_code_from_words(brute, n_bits)
    residue = oracles.residue
    assert {w for w in range(1 << n_bits) if not residue(code, w)} == brute
    # linear in the distance from the offset, one column per unit vector
    o = code.offset
    assert residue(code, o ^ x ^ y) == (
        residue(code, o ^ x) ^ residue(code, o ^ y))
    for i in range(n_bits):
        assert oracles.unit_residues(code)[i] == residue(code, o ^ 1 << i)


@settings(max_examples=150, deadline=None)
@given(checked_codes)
def test_complete_matches_the_agreeing_codewords(case):
    n_bits, masks, word, known = case
    brute = brute_force_solutions(masks, n_bits)
    if not brute:
        return
    code = oracles.affine_code_from_words(brute, n_bits)
    agree = [w for w in brute if not (w ^ word) & known]
    got = code.complete(word, known)
    if not agree:
        assert got is None
        return
    fill, varying = got
    assert fill in agree
    assert varying == sum(
        1 << i for i in range(n_bits) if len({w >> i & 1 for w in agree}) > 1
    )


# ---------- families ----------


@pytest.mark.parametrize("n, gens, edges", [(4, (), 32), (4, E8_CODE, 64)])
def test_count_is_two_to_the_kernel_dimension(n, gens, edges):
    skeleton = build_chromotopology(n, gens)
    masks = [sum(1 << i for i in quad) for quad in plaquette_quads(skeleton)]
    assert len(skeleton.edges) == edges
    expected = 2 ** (edges - oracles.gf2_rank(masks))
    assert count_valid_dashings(skeleton) == expected
    assert expected == 2 ** (2 ** n + len(gens) - 1)


def spanning_quotients(max_length, max_k):
    """(skeleton, whether its code is doubly even) for every quotient
    `build_quotient_skeleton` makes by a code of length at most
    `max_length` and dimension 1..`max_k` whose colors span four-cycles:
    a code with no word of weight 1 (refused by the builder) or 2 (two
    colors would share a step)."""
    out = []
    for length in range(1, max_length + 1):
        codes = set()
        for k in range(1, max_k + 1):
            for gens in combinations(range(1, 1 << length), k):
                codes.add(tuple(gf2_rref(list(gens))))
        for gens in sorted(codes):
            words = [0]
            for g in gens:
                words += [w ^ g for w in words]
            weights = list(map(int.bit_count, words[1:]))
            if len(gens) < length and min(weights) > 2:
                out.append((build_quotient_skeleton(
                    length - len(gens), LinearBinaryCode(length, gens)),
                    all(w % 4 == 0 for w in weights)))
    return out


def test_a_program_exists_exactly_when_the_parity_system_is_solvable():
    # extraction trusts the planes' odd-dashing verdict alone, and counting
    # reads the program's slots: both need "no program" to mean "no odd
    # dashing".  Odd parity on every plaquette is the system whose rows
    # are the plaquette masks augmented by a 1 beyond the edge bits
    kinds = {"doubly even": 0, "odd words, odd dashings": 0,
             "no odd dashing": 0}
    for skeleton, doubly_even in spanning_quotients(6, 2):
        edges = len(skeleton.edges)
        masks = [sum(1 << i for i in quad)
                 for quad in plaquette_quads(skeleton)]
        rank = oracles.gf2_rank(masks)
        solvable = oracles.gf2_rank([m | 1 << edges for m in masks]) == rank
        assert (baobab._ndxor_program(skeleton) is not None) == solvable
        assert count_valid_dashings(skeleton) == (
            2 ** (edges - rank) if solvable else 0)
        if doubly_even:
            assert solvable
            kind = "doubly even"
        else:
            kind = ("odd words, odd dashings" if solvable
                    else "no odd dashing")
        kinds[kind] += 1
    assert kinds == {"doubly even": 36, "odd words, odd dashings": 7,
                     "no odd dashing": 211}


def test_family_code_on_every_code_up_to_length_8():
    # the closed form against the plaquette checks: as many dimensions as
    # the checks' kernel, every basis word even and the offset odd on
    # every plaquette, so its words are exactly the odd dashings
    families = [Family(n, (), DASHING) for n in range(1, 9)] + [
        Family(length - len(gens),
               tuple(bit_string(g, length) for g in gens), DASHING)
        for length in range(1, 9)
        for gens in map(gf2_rref, oracles.doubly_even_codes(length))
    ]
    assert len(families) == 8 + 1107
    for family in families:
        skeleton = family_skeleton(family)
        code = family_code.__wrapped__(family)
        quads = plaquette_quads(skeleton)
        edges = len(skeleton.edges)
        assert code.n_bits == edges
        masks = [sum(1 << i for i in q) for q in quads]
        assert code.dim == edges - oracles.gf2_rank(masks) == (
            2 ** skeleton.n + skeleton.code.k - 1)
        # bit j of through[i]: plaquette j holds edge i; a word's parities
        # on all plaquettes are the XOR of its edges' entries
        through = [0] * edges
        for j, quad in enumerate(quads):
            for i in quad:
                through[i] |= 1 << j

        def parities(word):
            out = 0
            while word:
                low = word & -word
                out ^= through[low.bit_length() - 1]
                word ^= low
            return out

        assert parities(code.offset) == (1 << len(quads)) - 1
        assert not any(map(parities, code.basis))
        assert count_valid_dashings(skeleton) == 2 ** code.dim


def refuse_family_code(family):
    raise AssertionError("family_code called")


@pytest.mark.parametrize(
    "family",
    [Family(n, (), DASHING) for n in range(1, 6)]
    + [Family(3, ("1111",), DASHING), E8],
    ids=["n1", "n2", "n3", "n4", "n5", "n3k1", "e8"],
)
def test_dashing_distance_is_n_plus_k(family, monkeypatch):
    want = family.n + len(family.code_generators)
    monkeypatch.setattr(codec, "family_code", refuse_family_code)
    assert min_distance(family) == want  # read off the header alone
    code = family_code(family)
    quads = plaquette_quads(family_skeleton(family))
    assert oracles.min_even_set_by_branching(code.n_bits, quads, want) == want


def test_quaternion_distance_is_its_degree(monkeypatch):
    # L = 3: the kernel, the span of K4's vertex switches, weighs
    # 3, 3, 3, 3, 4, 4, 4 off zero
    code = family_code(QUATERNION_FAMILY)
    assert code.basis == (42, 27, 7)
    assert sorted(w.bit_count() for w in oracles.xor_span(code.basis)) == [
        0, 3, 3, 3, 3, 4, 4, 4]
    words = oracles.codewords(QUATERNION_FAMILY)
    monkeypatch.setattr(codec, "family_code", refuse_family_code)
    assert min_distance(QUATERNION_FAMILY) == 3
    assert oracles.naive_min_distance(words) == 3


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
    assert oracles.codewords(family) == tuple(sorted(brute, key=as_int))


def test_quaternion_codewords_match_oracle():
    words = oracles.quaternion_direction_words(
        [
            (e.u, e.v, COLOR_UNITS[e.color])
            for e in family_skeleton(QUATERNION_FAMILY).edges
        ]
    )
    assert oracles.codewords(QUATERNION_FAMILY) == tuple(
        sorted(words, key=as_int))


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


def test_size_guard_applies_to_cached_family_headers(monkeypatch):
    monkeypatch.delenv("ADINKRA_SIZE_GUARD", raising=False)
    header = "n=12;code=;scheme=dashing"
    parse_family(header)  # accepted, and its quotient code cached
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "10")
    with pytest.raises(SizeGuardError):
        parse_family("n=11;code=;scheme=dashing")
    with pytest.raises(SizeGuardError) as want:
        check_guard(12, "quotient construction")
    with pytest.raises(SizeGuardError) as cached:
        parse_family(header)
    assert str(cached.value) == str(want.value)
    with pytest.raises(SizeGuardError) as skeleton:
        family_skeleton(Family(12, (), DASHING))
    assert str(skeleton.value) == str(want.value)


def test_guard_errors_count_the_digits_of_a_long_exponent(monkeypatch):
    # up to 48 digits n is written out; past that, its digit count, so a
    # header with a 4000-digit n gives one short line, not 4106 characters
    monkeypatch.delenv("ADINKRA_SIZE_GUARD", raising=False)
    tail = "words, above the guard of 2**20; set ADINKRA_SIZE_GUARD to raise "
    for n, exponent in ((10 ** 48 - 1, "9" * 48), (10 ** 48, "(49 digits)"),
                        (10 ** 4000 - 1, "(4000 digits)")):
        with pytest.raises(SizeGuardError) as err:
            check_guard(n, "quotient construction")
        assert str(err.value) == (
            f"quotient construction needs 2**{exponent} {tail}the limit")
    with pytest.raises(SizeGuardError) as err:
        parse_family(f"n={'9' * 4000};code=;scheme=dashing")
    assert str(err.value) == (
        f"quotient construction needs 2**(4000 digits) {tail}the limit")
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "7" * 60)
    with pytest.raises(SizeGuardError) as err:
        check_guard(10 ** 60, "enumeration")
    assert str(err.value).startswith(
        "enumeration needs 2**(61 digits) words, above the guard of "
        "2**(60 digits);")


def test_distance_walk_is_guarded(monkeypatch):
    # no family's code is walked: the distance is closed form, guarded
    # only by a dashing family's n like any header
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "2")
    assert min_distance(QUATERNION_FAMILY) == 3  # kernel dimension 3
    with pytest.raises(SizeGuardError) as err:
        min_distance(N4)
    assert str(err.value).startswith("quotient construction needs 2**4 ")
    monkeypatch.setenv("ADINKRA_SIZE_GUARD", "4")
    assert min_distance(N4) == 4  # kernel dimension 15
