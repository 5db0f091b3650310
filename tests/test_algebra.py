"""Monomial arithmetic, transformation matrices, algebra checks."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from adinkra import algebra
from adinkra import (
    DT,
    GammaSet,
    GradedSumError,
    I_UNIT,
    InputError,
    MINUS_ONE,
    Monomial,
    MonomialMatrix,
    ONE,
    ZERO,
    adinkra_to_gamma,
    anticommutator,
    build_chromotopology,
    canonical_quaternion_matrices,
    check_block_transpose,
    check_garden,
    check_quaternion,
    mat_add,
    mat_mul,
    mat_neg,
    reconstruct_dashing,
    skeleton_baobab_edges,
    valise_heights,
    verify_heights,
    verify_odd_dashing,
    weight_heights,
)
from adinkra.quaternion import (
    COLOR_UNITS,
    directions_from_vector,
    matrices_from_directions,
    quaternion_baobab_completions,
    quaternion_edges,
)


# ---------- monomials ----------


def test_monomial_multiplication_is_gaussian_with_graded_derivative():
    assert I_UNIT.mul(I_UNIT) == MINUS_ONE
    assert DT.mul(DT) == Monomial(1, 0, 2)
    assert I_UNIT.mul(DT) == Monomial(0, 1, 1)
    assert I_UNIT.mul(Monomial(2, 0, 1)) == Monomial(0, 2, 1)
    assert ZERO.mul(DT) == ZERO


def test_monomial_addition_same_grade():
    assert ONE.add(ONE) == Monomial(2, 0, 0)
    assert DT.add(DT.neg()) == ZERO
    assert ZERO.add(DT) == DT


def test_monomial_addition_rejects_mixed_grades():
    with pytest.raises(GradedSumError):
        ONE.add(DT)


def test_monomial_zero_cannot_carry_derivative():
    with pytest.raises(InputError):
        Monomial(0, 0, 3)


def test_monomial_strings():
    assert str(ZERO) == "0"
    assert str(MINUS_ONE) == "-1"
    assert str(I_UNIT) == "i"
    assert str(Monomial(0, 2, 1)) == "2i·d/dt"
    assert str(Monomial(1, 0, 2)) == "1·(d/dt)^2"


def test_drop_phase_and_derivative():
    assert Monomial(0, -3, 2).drop_phase_and_derivative() == MINUS_ONE
    assert Monomial(2, 0, 1).drop_phase_and_derivative() == ONE
    with pytest.raises(InputError):
        Monomial(1, 1, 0).drop_phase_and_derivative()


def refusal(call, kind=InputError):
    """The text of the `kind` error that `call()` raises."""
    with pytest.raises(kind) as err:
        call()
    return str(err.value)


def test_monomial_refuses_bad_parts():
    assert refusal(lambda: Monomial(1.5)) == (
        "monomial parts must be integers, got 1.5")
    assert refusal(lambda: Monomial(1, 0, -1)) == (
        "derivative power must be >= 0, got -1")


def test_zero_passes_through_add_neg_and_drop():
    # zero carries no derivative power, so it adds to any grade, and the
    # zero monomial is the one ZERO
    assert ONE.add(ZERO) is ONE
    assert DT.add(ZERO) is DT
    assert ZERO.neg() is ZERO
    assert ZERO.drop_phase_and_derivative() is ZERO


# ---------- matrices ----------


def test_matrix_from_integer_rows_and_multiplication():
    rot = MonomialMatrix.from_rows(((0, 1), (-1, 0)))
    assert rot.entry(0, 1) == ONE
    assert rot.entry(1, 0) == MINUS_ONE
    assert mat_mul(rot, rot) == MonomialMatrix.identity(2, MINUS_ONE)
    assert rot.transpose() == MonomialMatrix.from_rows(((0, -1), (1, 0)))


def test_matrix_refuses_bad_entries_and_short_rows():
    m = MonomialMatrix(2)
    assert refusal(lambda: m.set_entry(2, 0, ONE)) == (
        "entry (2, 0) outside dim 2")
    assert refusal(lambda: m.set_entry(0, 0, 1)) == (
        "entry must be a Monomial, got 1")
    assert refusal(lambda: MonomialMatrix.from_rows([[1, 0], [1]])) == (
        "row 1 has length 1, expected 2")
    assert m.is_zero and MonomialMatrix(2) == m
    assert not MonomialMatrix.identity(2).is_zero


def test_matrix_equals_only_matrices_and_is_unhashable():
    m = MonomialMatrix(2)
    assert m.__eq__(0) is NotImplemented
    assert not m == 0 and m != 0
    assert refusal(lambda: hash(m), TypeError) == (
        "MonomialMatrix is unhashable")


def test_anticommutator_of_commuting_reflection_is_two_identity():
    refl = MonomialMatrix.from_rows(((0, 1), (1, 0)))
    assert anticommutator(refl, refl) == MonomialMatrix.identity(
        2, Monomial(2, 0, 0)
    )


def test_matrix_addition_surfaces_graded_conflicts():
    a = MonomialMatrix(1, {(0, 0): ONE})
    b = MonomialMatrix(1, {(0, 0): DT})
    with pytest.raises(GradedSumError):
        from adinkra import mat_add

        mat_add(a, b)


# ---------- the one-dashed-edge valise square ----------


def valise_square():
    """Square with fermions low, bosons high, one dashed edge."""
    a = build_chromotopology(2, ())
    dashing = {e: 1 for e in a.edges}
    dashing[(0b00, 0b10, 1)] = -1
    heights = {0b00: 1, 0b11: 1, 0b01: 0, 0b10: 0}
    return a.with_dashing(dashing).with_heights(heights)


def test_valise_square_transformation_entries():
    gammas = adinkra_to_gamma(valise_square())
    # basis: bosons 00, 11 then fermions 01, 10
    assert gammas.basis == (0b00, 0b11, 0b01, 0b10)
    g1, g2 = gammas.matrices[1], gammas.matrices[2]
    expected_1 = {
        (0, 3): MINUS_ONE,
        (1, 2): ONE,
        (2, 1): Monomial(0, 1, 1),
        (3, 0): Monomial(0, -1, 1),
    }
    expected_2 = {
        (0, 2): ONE,
        (1, 3): ONE,
        (2, 0): Monomial(0, 1, 1),
        (3, 1): Monomial(0, 1, 1),
    }
    for (r, c) in itertools.product(range(4), range(4)):
        assert g1.entry(r, c) == expected_1.get((r, c), ZERO)
        assert g2.entry(r, c) == expected_2.get((r, c), ZERO)


def test_valise_square_satisfies_garden_relations():
    gammas = adinkra_to_gamma(valise_square())
    report = check_garden(gammas)
    assert report.ok
    # each color squares to i d/dt times the identity
    for color in (1, 2):
        g = gammas.matrices[color]
        assert mat_mul(g, g) == MonomialMatrix.identity(4, Monomial(0, 1, 1))
    assert check_block_transpose(gammas).ok


def test_extended_square_transformation_entries():
    # heights by bit count: 00 lowest, 11 highest, dashed edge {01, 11}
    a = build_chromotopology(2, ())
    dashing = {e: 1 for e in a.edges}
    dashing[(0b01, 0b11, 1)] = -1
    gammas = adinkra_to_gamma(
        a.with_dashing(dashing).with_heights({0: 0, 1: 1, 2: 1, 3: 2})
    )
    g1, g2 = gammas.matrices[1], gammas.matrices[2]
    expected_1 = {
        (0, 3): DT,
        (1, 2): MINUS_ONE,
        (2, 1): Monomial(0, -1, 1),
        (3, 0): I_UNIT,
    }
    expected_2 = {
        (0, 2): DT,
        (1, 3): ONE,
        (2, 0): I_UNIT,
        (3, 1): Monomial(0, 1, 1),
    }
    for (r, c) in itertools.product(range(4), range(4)):
        assert g1.entry(r, c) == expected_1.get((r, c), ZERO)
        assert g2.entry(r, c) == expected_2.get((r, c), ZERO)
    assert check_garden(gammas).ok


def test_gamma_requires_dashing_heights_and_validity():
    a = build_chromotopology(2, ())
    with pytest.raises(InputError):
        adinkra_to_gamma(a)
    bad_dash = a.with_dashing({e: 1 for e in a.edges}).with_heights(
        valise_heights(a)
    )
    with pytest.raises(InputError):
        adinkra_to_gamma(bad_dash)
    assert not check_garden(adinkra_to_gamma(bad_dash, validate=False)).ok


# ---------- the garden check against the graph verifiers ----------


def all_square_dashings():
    a = build_chromotopology(2, ())
    for bits in itertools.product((1, -1), repeat=4):
        yield a.with_dashing(dict(zip(a.edges, bits))).with_heights(
            valise_heights(a)
        )


def test_garden_matches_odd_dashing_verifier_on_every_square_dashing():
    results = []
    for a in all_square_dashings():
        garden_ok = check_garden(adinkra_to_gamma(a, validate=False)).ok
        assert garden_ok == verify_odd_dashing(a).ok
        results.append(garden_ok)
    assert sum(results) == 8  # half of the 16 assignments


def test_garden_sees_heights_only_through_arrow_directions():
    a = build_chromotopology(2, ())
    dashing = {e: 1 for e in a.edges}
    dashing[(0b10, 0b11, 2)] = -1
    base = a.with_dashing(dashing)

    # stretched heights: same up/down pattern as 0,1,1,2 but a jump of
    # two on both edges into the top node — the unit-step verifier
    # rejects it, yet the algebra only reads arrow directions
    stretched = base.with_heights({0: 0, 1: 1, 2: 1, 3: 3})
    assert not verify_heights(stretched).ok
    assert check_garden(adinkra_to_gamma(stretched, validate=False)).ok

    # equal heights across an edge break the squared relation
    flat = base.with_heights({0: 0, 1: 0, 2: 0, 3: 0})
    report = check_garden(adinkra_to_gamma(flat, validate=False))
    assert not report.ok

    # a height pattern whose two plaquette paths disagree in derivative
    # count must surface as a graded-sum violation, not a crash
    twisted = base.with_heights({0: 0, 1: 1, 2: 3, 3: 2})
    report = check_garden(adinkra_to_gamma(twisted, validate=False))
    assert not report.ok
    assert any("derivative" in str(v) for v in report.violations)


# ---------- quaternion matrices ----------


def test_canonical_quaternion_matrices_are_frozen_literals():
    mats = canonical_quaternion_matrices()
    assert mats["i"] == MonomialMatrix.from_rows(
        ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    )
    assert mats["j"] == MonomialMatrix.from_rows(
        ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    )
    assert mats["k"] == MonomialMatrix.from_rows(
        ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))
    )
    assert check_quaternion(mats).ok
    # ij = k
    assert mat_mul(mats["i"], mats["j"]) == mats["k"]


def test_quaternion_validity_matches_numpy_oracle_on_all_64_vectors():
    edges = quaternion_edges()
    valid = {c.directions for c in quaternion_baobab_completions({})
             if c.valid}
    assert len(valid) == 8
    for bits in itertools.product((0, 1), repeat=6):
        directions = directions_from_vector(bits)
        ours = check_quaternion(matrices_from_directions(directions)).ok
        oriented = [
            (
                (e.u, e.v, COLOR_UNITS[e.color])
                if b
                else (e.v, e.u, COLOR_UNITS[e.color])
            )
            for e, b in zip(edges, bits)
        ]
        theirs = oracles.np_quaternion_ok(oracles.np_matrices(oriented))
        assert ours == theirs
        assert (bits in valid) == ours


def test_all_up_orientation_breaks_three_relations():
    mats = matrices_from_directions(directions_from_vector((1,) * 6))
    report = check_quaternion(mats)
    assert not report.ok
    assert report.violated_relations() == ("ijk", "{i,j}", "{j,k}")
    # squares stay intact for every orientation
    assert all(
        r not in report.violated_relations() for r in ("i^2", "j^2", "k^2")
    )


def test_check_quaternion_rejects_malformed_inputs():
    mats = canonical_quaternion_matrices()
    with pytest.raises(InputError):
        check_quaternion({"i": mats["i"], "j": mats["j"]})  # missing k
    bad = dict(mats)
    bad["k"] = MonomialMatrix.identity(4, DT)
    with pytest.raises(InputError):
        check_quaternion(bad)
    small = dict.fromkeys("ijk", MonomialMatrix.identity(2, MINUS_ONE))
    assert refusal(lambda: check_quaternion(small)) == (
        "quaternion matrices must be 4x4, got dims {2}")


# ---------- library arithmetic against the Monomial-object oracles ----------

E8_CODE = ("11110000", "00001111", "11001100", "10101010")
GARDEN_FAMILIES = [(2, ()), (3, ()), (4, ()), (5, ()), (6, ()),
                   (3, ("1111",)), (4, E8_CODE)]


def outcome(fn, *args):
    """A matrix as its rows in insertion order, or the error raised."""
    try:
        out = fn(*args)
    except (GradedSumError, InputError) as exc:
        return type(exc), str(exc)
    if isinstance(out, MonomialMatrix):
        return out.dim, [list(row.items()) for row in out._rows]
    return out


def assert_checks_match(gammas):
    for stop_early in (True, False):
        assert outcome(check_garden, gammas, stop_early) == outcome(
            oracles.naive_check_garden, gammas, stop_early)
    assert outcome(check_block_transpose, gammas) == outcome(
        oracles.naive_check_block_transpose, gammas)


def valid_adinkras(n, gens):
    """A random valid dashing with valise and, for k = 0, weight heights."""
    a = build_chromotopology(n, gens)
    tree, cycles, _ = skeleton_baobab_edges(a)
    rng = random.Random(n * 10 + len(gens))
    signs, _ = reconstruct_dashing(
        a, {e: rng.randint(0, 1) for e in tree + cycles})
    heights = [valise_heights(a)] + ([] if gens else [weight_heights(a)])
    return [a.with_dashing(signs).with_heights(h) for h in heights]


VALID = {(n, gens): valid_adinkras(n, gens) for n, gens in GARDEN_FAMILIES}


@pytest.mark.parametrize("n, gens", GARDEN_FAMILIES)
def test_garden_matches_oracle_on_valid_and_stretched_adinkras(n, gens):
    for adk in VALID[(n, gens)]:
        gammas = adinkra_to_gamma(adk)
        assert check_garden(gammas).ok
        assert_checks_match(gammas)
        # doubled heights keep every arrow, so the relations still hold
        stretched = adk.with_heights(
            {x: 2 * h for x, h in adk.heights.items()})
        assert not verify_heights(stretched).ok
        gammas = adinkra_to_gamma(stretched, validate=False)
        assert check_garden(gammas).ok
        assert_checks_match(gammas)


@st.composite
def decorated_gammas(draw):
    """Γ of a valid adinkra with some dashing signs flipped and, half
    the time, arbitrary heights, which mix derivative powers."""
    n, gens = draw(st.sampled_from(GARDEN_FAMILIES[:3] + GARDEN_FAMILIES[5:6]))
    adk = draw(st.sampled_from(VALID[(n, gens)]))
    flips = draw(st.lists(st.sampled_from(adk.edges), unique=True,
                          max_size=4))
    dashing = {e: -s if e in flips else s for e, s in adk.dashing.items()}
    heights = adk.heights
    if draw(st.booleans()):
        heights = {x: draw(st.integers(0, 3)) for x in adk.nodes}
    return adinkra_to_gamma(
        adk.with_dashing(dashing).with_heights(heights), validate=False)


@given(decorated_gammas())
@settings(max_examples=150, deadline=None)
def test_garden_matches_oracle_on_flipped_signs_and_heights(gammas):
    assert_checks_match(gammas)


# few values, so sums cancel often and mix derivative powers often
ENTRIES = st.builds(
    lambda re, im, dpow: Monomial(re, im, dpow) if re or im else ZERO,
    st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 1),
)


@st.composite
def monomial_matrices(draw, dim):
    """Arbitrary entries, set in a drawn column order per row."""
    m = MonomialMatrix(dim)
    for r in range(dim):
        cols = draw(st.lists(st.integers(0, dim - 1), unique=True,
                             max_size=dim))
        for c in cols:
            m.set_entry(r, c, draw(ENTRIES))
    return m


@given(st.integers(1, 4).flatmap(
    lambda dim: st.lists(monomial_matrices(dim), min_size=3, max_size=3)))
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_oracle_on_cancelling_mixed_entries(mats):
    a, b, c = mats
    for ours, theirs in ((mat_mul, oracles.naive_mat_mul),
                         (mat_add, oracles.naive_mat_add),
                         (anticommutator, oracles.naive_anticommutator)):
        assert outcome(ours, a, b) == outcome(theirs, a, b)
        assert outcome(ours, b, b) == outcome(theirs, b, b)
    assert outcome(mat_add, a, mat_neg(a)) == (a.dim, [[]] * a.dim)
    try:
        ab = oracles.naive_mat_mul(a, b)
    except GradedSumError:
        ab = None
    if ab is not None:  # a product's insertion order feeds the next one
        assert outcome(mat_mul, ab, c) == outcome(oracles.naive_mat_mul, ab, c)
    dim = a.dim
    assert_checks_match(GammaSet({1: a, 2: b, 3: c}, tuple(range(dim)),
                                 dim // 2))


@given(st.integers(1, 5).flatmap(lambda dim: st.tuples(
    monomial_matrices(dim),
    st.integers(0, dim - 1), st.integers(0, dim - 1),
    st.integers(0, dim), st.booleans())))
@settings(max_examples=300, deadline=None)
def test_block_matches_cell_by_cell_oracle(case):
    m, r0, c0, size, reverse = case
    # cols may run out first, which makes the block non-square
    rows = range(r0, min(r0 + size, m.dim))
    cols = range(c0, min(c0 + len(rows), m.dim))
    if reverse:
        rows, cols = rows[::-1], cols[::-1]
    assert outcome(m.block, rows, cols) == outcome(
        oracles.naive_block, m, rows, cols)


@pytest.mark.parametrize("n, gens", GARDEN_FAMILIES)
def test_gamma_blocks_match_cell_by_cell_oracle(n, gens):
    for adk in VALID[(n, gens)]:
        gammas = adinkra_to_gamma(adk)
        br, fr = gammas.boson_range(), gammas.fermion_range()
        for m in gammas.matrices.values():
            for rows, cols in ((br, fr), (fr, br), (br, br)):
                assert outcome(m.block, rows, cols) == outcome(
                    oracles.naive_block, m, rows, cols)


def test_arithmetic_rejects_mismatched_dimensions():
    for fn in (mat_mul, mat_add, anticommutator):
        got = outcome(fn, MonomialMatrix(2), MonomialMatrix(3))
        assert got == (InputError, "dimension mismatch: 2 vs 3")


def test_quaternion_check_matches_oracle_on_all_64_vectors():
    for bits in itertools.product((0, 1), repeat=6):
        mats = matrices_from_directions(directions_from_vector(bits))
        assert check_quaternion(mats) == oracles.naive_check_quaternion(mats)


# ---------- sets built from matrices ----------

NONZERO_ENTRIES = ENTRIES.filter(lambda m: not m.is_zero)


def gamma_outcome(gammas):
    """Γ matrices as their rows in insertion order, entries by repr."""
    return ([(c, m.dim, [[(col, repr(x)) for col, x in row.items()]
                         for row in m._rows])
             for c, m in gammas.matrices.items()],
            gammas.basis, gammas.boson_count)


def with_row(m, r, entries):
    """A copy of `m` whose row r holds exactly `entries` (col -> value)."""
    out = MonomialMatrix(m.dim)
    out._rows = [dict(row) for row in m._rows]
    out._rows[r] = {}
    for c, x in entries.items():
        out.set_entry(r, c, x)
    return out


@st.composite
def unit_row_gammas(draw):
    """Γ sets whose every row holds one entry: free columns and entries
    from ENTRIES, or a valid Γ with a few rows redrawn, so pairs that
    hold, pairs that cancel to a wrong column and mixed grades occur."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        colors = draw(st.lists(st.integers(1, 9), unique=True, min_size=1,
                               max_size=4))
        matrices = {}
        for c in colors:
            m = MonomialMatrix(dim)
            for r in range(dim):
                m.set_entry(r, draw(st.integers(0, dim - 1)),
                            draw(NONZERO_ENTRIES))
            matrices[c] = m
        return GammaSet(matrices, tuple(range(dim)), dim // 2)
    n, gens = draw(st.sampled_from(GARDEN_FAMILIES[:4] + GARDEN_FAMILIES[5:]))
    gammas = adinkra_to_gamma(draw(st.sampled_from(VALID[(n, gens)])))
    matrices = dict(gammas.matrices)
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.sampled_from(sorted(matrices)))
        r = draw(st.integers(0, gammas.dim - 1))
        col = draw(st.integers(0, gammas.dim - 1))
        matrices[c] = with_row(matrices[c], r, {col: draw(NONZERO_ENTRIES)})
    return GammaSet(matrices, gammas.basis, gammas.boson_count)


@given(unit_row_gammas())
@settings(max_examples=300, deadline=None)
def test_unit_row_garden_matches_oracle(gammas):
    assert all(len(row) == 1 for m in gammas.matrices.values()
               for row in m._rows)
    for stop_early in (True, False):
        assert outcome(check_garden, gammas, stop_early) == outcome(
            oracles.naive_check_garden, gammas, stop_early)


class CountedAnticommutator:
    """Stands in for `algebra.anticommutator` and counts its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.real = algebra.anticommutator
        monkeypatch.setattr(algebra, "anticommutator", self)

    def __call__(self, a, b):
        self.calls += 1
        return self.real(a, b)


@pytest.mark.parametrize("n, gens", GARDEN_FAMILIES)
def test_triple_rows_run_only_for_failing_pairs(n, gens, monkeypatch):
    counted = CountedAnticommutator(monkeypatch)
    adk = VALID[(n, gens)][0]
    assert check_garden(adinkra_to_gamma(adk), stop_early=False).ok
    assert counted.calls == 0
    # one flipped sign breaks {G_c, G_d} for every d != c, not {G_c, G_c}
    e = adk.edges[len(adk.edges) // 2]
    flipped = adk.with_dashing({**adk.dashing, e: -adk.dashing[e]})
    report = check_garden(adinkra_to_gamma(flipped, validate=False),
                          stop_early=False)
    want = tuple(f"{{G{min(c, e.color)}, G{max(c, e.color)}}}"
                 for c in adk.colors() if c != e.color)
    assert report.violated_relations() == want
    assert counted.calls == len(want)


def test_pickles_and_copies_keep_the_planes(monkeypatch):
    # a clone of a plane-backed set is decided on its planes too: the
    # triple path runs only for the flipped set's failing pairs
    adk = VALID[(4, ())][0]
    e = adk.edges[len(adk.edges) // 2]
    flipped = adk.with_dashing({**adk.dashing, e: -adk.dashing[e]})
    counted = CountedAnticommutator(monkeypatch)
    for gammas in (adinkra_to_gamma(adk),
                   adinkra_to_gamma(flipped, validate=False)):
        want = check_garden(gammas, stop_early=False)
        for clone in (pickle.loads(pickle.dumps(gammas)), copy.copy(gammas)):
            counted.calls = 0
            report = check_garden(clone, stop_early=False)
            assert report.violations == want.violations
            assert counted.calls == len(want.violated_relations())
            assert clone == gammas
    assert counted.calls == 3  # the flipped color against the other three


def test_matrix_built_sets_take_the_triple_path_on_every_pair(monkeypatch):
    gammas = adinkra_to_gamma(VALID[(3, ())][0])
    g2 = gammas.matrices[2]
    (c0, x0), = g2._rows[0].items()
    g2 = with_row(g2, 0, {})                       # an empty row
    g2 = with_row(g2, 1, {**g2._rows[1], c0: x0})  # a two-entry row
    broken = GammaSet({**gammas.matrices, 2: g2}, gammas.basis,
                      gammas.boson_count)
    for stop_early in (True, False):
        assert outcome(check_garden, broken, stop_early) == outcome(
            oracles.naive_check_garden, broken, stop_early)
    counted = CountedAnticommutator(monkeypatch)
    report = check_garden(broken, stop_early=False)
    assert report.violated_relations() == ("{G1, G2}", "{G2, G2}",
                                           "{G2, G3}")
    assert counted.calls == 6
    # a valid set built from the same matrices: every pair still runs
    valid = GammaSet(gammas.matrices, gammas.basis, gammas.boson_count)
    assert check_garden(valid, stop_early=False).ok
    assert counted.calls == 12


@pytest.mark.parametrize("n, gens", GARDEN_FAMILIES)
def test_gamma_matches_one_color_at_a_time_oracle(n, gens):
    for adk in VALID[(n, gens)]:
        assert gamma_outcome(adinkra_to_gamma(adk)) == gamma_outcome(
            oracles.naive_adinkra_to_gamma(adk))
        # signs a dashing verifier rejects: zero, two, a bool, a float;
        # Γ refuses them too, unvalidated
        for e in (adk.edges[0], adk.edges[-1]):
            for bad in (0, 2, True, 1.0):
                odd = adk.with_dashing({**adk.dashing, e: bad})
                assert outcome(adinkra_to_gamma, odd, False) == (
                    InputError, f"dashing sign for {e} must be +1 or -1, "
                    f"got {bad}")


RM14 = ("1111111111111111", "0000000011111111", "0000111100001111",
        "0011001100110011", "0101010101010101")  # RM(1,4), doubly even


def test_l16_valise_garden_holds_and_names_a_flipped_color():
    a = build_chromotopology(11, RM14)
    tree, cycles, _ = skeleton_baobab_edges(a)
    signs, _ = reconstruct_dashing(a, {e: 1 for e in tree + cycles})
    adk = a.with_dashing(signs).with_heights(valise_heights(a))
    assert check_garden(adinkra_to_gamma(adk)).ok
    e = next(e for e in adk.edges if e.color == 7)
    flipped = adk.with_dashing({**signs, e: -signs[e]})
    report = check_garden(adinkra_to_gamma(flipped, validate=False))
    assert report.violated_relations() == ("{G1, G7}",)


def test_unit_rows_of_unequal_dimension_raise_as_before():
    # {A, A} holds, and the two rows of A agree with B's first two, yet
    # B is 3x3: the pair must still raise the dimension mismatch
    a = MonomialMatrix.from_rows([[0, DT], [I_UNIT, 0]])
    b = MonomialMatrix.from_rows([[0, Monomial(0, 1, 1), 0], [ONE, 0, 0],
                                  [0, 0, ONE]])
    gammas = GammaSet({1: a, 2: b}, (0, 1), 1)
    for stop_early in (True, False):
        got = outcome(check_garden, gammas, stop_early)
        assert got == (InputError, "dimension mismatch: 2 vs 3")
        assert got == outcome(oracles.naive_check_garden, gammas, stop_early)
