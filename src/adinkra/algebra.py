"""Exact matrix algebra over monomials c * (d/dt)^p.

Coefficients are Gaussian integers, so products and anticommutators of
unit-entry matrices stay exact; the derivative power p grades each
entry, and adding entries of different grade is an error rather than a
silent coercion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .codes import weight
from .errors import GradedSumError, InputError
from .graph import (
    _BITS,
    Adinkra,
    VerificationReport,
    _moved,
    _odd_planes,
    _rank_planes,
    _RankPlanes,
    boson_nodes,
    checked_heights,
    checked_signs,
    fermion_nodes,
    verify_heights,
    verify_odd_dashing,
)

# ---------- monomials ----------


@dataclass(frozen=True)
class Monomial:
    """(re + im*i) * (d/dt)**dpow, with zero always stored as (0, 0, 0)."""

    re: int = 0
    im: int = 0
    dpow: int = 0

    def __post_init__(self):
        for part in (self.re, self.im, self.dpow):
            if not isinstance(part, int):
                raise InputError(f"monomial parts must be integers, got {part!r}")
        if self.dpow < 0:
            raise InputError(f"derivative power must be >= 0, got {self.dpow}")
        if self.re == 0 and self.im == 0 and self.dpow != 0:
            raise InputError("the zero monomial cannot carry a derivative")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def mul(self, other: "Monomial") -> "Monomial":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        if re == 0 and im == 0:
            return ZERO
        return Monomial(re, im, self.dpow + other.dpow)

    def add(self, other: "Monomial") -> "Monomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.dpow != other.dpow:
            raise GradedSumError(
                f"cannot add {self} and {other}: derivative powers differ"
            )
        re, im = self.re + other.re, self.im + other.im
        if re == 0 and im == 0:
            return ZERO
        return Monomial(re, im, self.dpow)

    def neg(self) -> "Monomial":
        if self.is_zero:
            return ZERO
        return Monomial(-self.re, -self.im, self.dpow)

    def drop_phase_and_derivative(self) -> "Monomial":
        """Map c*(d/dt)^p to the sign of its real or imaginary part."""
        if self.is_zero:
            return ZERO
        if self.re and self.im:
            raise InputError(f"{self} has no single phase to drop")
        sign = 1 if (self.re or self.im) > 0 else -1
        return Monomial(sign, 0, 0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.im == 0:
            coeff = str(self.re)
        elif self.re == 0:
            coeff = {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        else:
            sign = "+" if self.im > 0 else "-"
            mag = abs(self.im)
            coeff = f"{self.re}{sign}{'' if mag == 1 else mag}i"
        if self.dpow == 0:
            return coeff
        deriv = "d/dt" if self.dpow == 1 else f"(d/dt)^{self.dpow}"
        return f"{coeff}·{deriv}"


ZERO = Monomial(0, 0, 0)
ONE = Monomial(1, 0, 0)
MINUS_ONE = Monomial(-1, 0, 0)
I_UNIT = Monomial(0, 1, 0)
DT = Monomial(1, 0, 1)


# ---------- monomial matrices ----------


class MonomialMatrix:
    """Square sparse matrix of monomials."""

    __slots__ = ("dim", "_rows")

    def __init__(self, dim: int, entries: Mapping | None = None):
        if dim < 1:
            raise InputError(f"matrix dimension must be positive, got {dim}")
        self.dim = dim
        self._rows: list[dict[int, Monomial]] = [{} for _ in range(dim)]
        if entries:
            for (r, c), m in entries.items():
                self.set_entry(r, c, m)

    def set_entry(self, row: int, col: int, value: Monomial) -> None:
        if not 0 <= row < self.dim or not 0 <= col < self.dim:
            raise InputError(f"entry ({row}, {col}) outside dim {self.dim}")
        if not isinstance(value, Monomial):
            raise InputError(f"entry must be a Monomial, got {value!r}")
        if value.is_zero:
            self._rows[row].pop(col, None)
        else:
            self._rows[row][col] = value

    def entry(self, row: int, col: int) -> Monomial:
        return self._rows[row].get(col, ZERO)

    def iter_entries(self):
        for r, row in enumerate(self._rows):
            for c, m in sorted(row.items()):
                yield r, c, m

    @property
    def is_zero(self) -> bool:
        return all(not row for row in self._rows)

    @classmethod
    def identity(cls, dim: int, scale: Monomial = ONE) -> "MonomialMatrix":
        out = cls(dim)
        for r in range(dim):
            out.set_entry(r, r, scale)
        return out

    @classmethod
    def from_rows(cls, rows) -> "MonomialMatrix":
        """Build from a dense list of lists of Monomials or integers."""
        dim = len(rows)
        out = cls(dim)
        for r, row in enumerate(rows):
            if len(row) != dim:
                raise InputError(f"row {r} has length {len(row)}, expected {dim}")
            for c, m in enumerate(row):
                if isinstance(m, int):
                    m = Monomial(m, 0, 0) if m else ZERO
                out.set_entry(r, c, m)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        return self.dim == other.dim and self._rows == other._rows

    def __hash__(self):
        raise TypeError("MonomialMatrix is unhashable")

    def map_entries(self, fn) -> "MonomialMatrix":
        out = MonomialMatrix(self.dim)
        for r, c, m in self.iter_entries():
            out.set_entry(r, c, fn(m))
        return out

    def transpose(self) -> "MonomialMatrix":
        out = MonomialMatrix(self.dim)
        # stored entries are nonzero Monomials: no set_entry checks
        for r, row in enumerate(self._rows):
            for c, m in row.items():
                out._rows[c][r] = m
        return out

    def block(self, rows: range, cols: range) -> "MonomialMatrix":
        """Square sub-block (used to split boson/fermion sectors)."""
        if len(rows) != len(cols):
            raise InputError("block must be square")
        out = MonomialMatrix(len(rows))
        position = {c: j for j, c in enumerate(cols)}
        for i, r in enumerate(rows):
            # the stored (nonzero) entries only, in ascending block column
            out._rows[i] = dict(sorted(
                (position[c], m) for c, m in self._rows[r].items()
                if c in position
            ))
        return out

    def to_text(self) -> str:
        cells = [[str(self.entry(r, c)) for c in range(self.dim)]
                 for r in range(self.dim)]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(
            "  ".join(s.rjust(width) for s in row) for row in cells
        )

    def __repr__(self) -> str:
        return f"MonomialMatrix(dim={self.dim})\n{self.to_text()}"


# ---------- exact arithmetic ----------


def _accumulate(rows: list[dict[int, Monomial]], r: int, c: int,
                term: Monomial) -> None:
    """Add a nonzero `term` to entry (r, c) of `rows`; an entry that
    cancels is dropped, and adding entries of different derivative power
    raises."""
    row = rows[r]
    cur = row.get(c)
    if cur is None:
        row[c] = term
        return
    if cur.dpow != term.dpow:
        raise GradedSumError(
            f"mixed derivative powers at entry ({r}, {c}): {cur} + {term}"
        )
    acc = cur.add(term)
    if acc.is_zero:
        del row[c]
    else:
        row[c] = acc


def _check_dims(a: MonomialMatrix, b: MonomialMatrix) -> None:
    if a.dim != b.dim:
        raise InputError(f"dimension mismatch: {a.dim} vs {b.dim}")


def mat_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """a·b, its terms summed over t, u, s in insertion order."""
    _check_dims(a, b)
    out = MonomialMatrix(a.dim)
    for t, row in enumerate(a._rows):
        for u, x in row.items():
            for s, y in b._rows[u].items():
                _accumulate(out._rows, t, s, x.mul(y))
    return out


def mat_add(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Entrywise a + b: a's entries, then b's, each in row-major order."""
    _check_dims(a, b)
    out = MonomialMatrix(a.dim)
    for m in (a, b):
        for r, c, x in m.iter_entries():
            _accumulate(out._rows, r, c, x)
    return out


def mat_neg(a: MonomialMatrix) -> MonomialMatrix:
    return a.map_entries(Monomial.neg)


def anticommutator(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    ab = mat_mul(a, b)
    # for {A, A} the second product would repeat the first exactly
    return mat_add(ab, ab if a is b else mat_mul(b, a))


# ---------- transformation matrices from an adinkra ----------


@dataclass(frozen=True)
class GammaSet:
    """One transformation matrix per color over a boson-then-fermion basis.

    A set that `adinkra_to_gamma` reads off an adinkra holds its
    matrices as node-rank planes (`_GammaPlanes`), which
    `check_garden` reads, and builds `matrices` from them on first
    read.  Equality and `repr` read `matrices`, so such a set behaves
    as `GammaSet(matrices, basis, boson_count)`; pickles and copies
    keep its planes.
    """

    matrices: Mapping[int, MonomialMatrix]
    basis: tuple[int, ...]
    boson_count: int

    def __getattr__(self, name):
        # reached only for attributes the instance lacks, such as the
        # `matrices` of a plane-backed set before their first read
        planes = self.__dict__.get("_planes")
        if name != "matrices" or planes is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        matrices = planes.matrices(self.basis)
        # frozen: write the built field straight into the instance
        self.__dict__["matrices"] = matrices
        return matrices

    @property
    def dim(self) -> int:
        return len(self.basis)

    def boson_range(self) -> range:
        return range(self.boson_count)

    def fermion_range(self) -> range:
        return range(self.boson_count, self.dim)


# Every entry of a ±1 dashing, keyed by the binary digits of its row in
# the three planes of `_GammaPlanes`: a fermionic target (times i), a
# dashed edge (times -1) and a source above the target (times d/dt).
_GAMMA_ENTRIES = {
    (f, d, up): Monomial(*((0, sign) if f == "1" else (sign, 0)), int(up))
    for f in "01" for d, sign in (("0", 1), ("1", -1)) for up in "01"
}


class _GammaPlanes(NamedTuple):
    """Γ over the node ranks of a graph (`graph._rank_planes`).

    Row r of Γ_c holds one entry, at column r ^ δ_c: i**(k0 + 2 k1) ·
    (d/dt)**g.  `packed[c]` holds color c's planes of k0 (the row is a
    fermion), k1 (its edge is dashed) and g (the other end sits higher)
    side by side, `ranks.size` bits each, low to high; index 0 is
    unused.  `swaps` are `ranks.swaps(3)`."""

    ranks: _RankPlanes
    nodes: tuple[int, ...]
    packed: list[int]
    swaps: list[tuple[tuple[int, int], ...]]

    def holds(self, ci: int, cj: int) -> bool:
        """Whether every row of {Γ_ci, Γ_cj} is 2i·d/dt on the diagonal
        (ci == cj) or zero.  Row r of Γ_x·Γ_y is one term at column
        r ^ δ_x ^ δ_y: the phase k_x(r) + k_y(r ^ δ_x) in Z4, whose sum
        of planes is (a0 ^ b0, a1 ^ b1 ^ a0 & b0), and the grade
        g_x(r) + g_y(r ^ δ_x), equal to another such sum exactly when
        both the XOR and the AND of its bits are."""
        size = self.ranks.size
        low = (1 << size) - 1

        def term(x, y, swaps):  # sum planes side by side, the grades' AND
            y = _moved(y, swaps)
            carry = x & y
            return x ^ y ^ (carry & low) << size, carry >> 2 * size

        a, b = self.packed[ci], self.packed[cj]
        if ci == cj:  # phase 1 and grade 1: i·d/dt, twice
            return term(a, a, self.swaps[ci])[0] == low | low << 2 * size
        ab, ab_up = term(a, b, self.swaps[ci])
        ba, ba_up = term(b, a, self.swaps[cj])
        # equal grades and phases 2 apart: the terms cancel
        return ab ^ ba == low << size and ab_up == ba_up

    def matrices(self, basis: tuple[int, ...],
                 colors=None) -> dict[int, MonomialMatrix]:
        """Γ_c over `basis` for each of `colors` (by default every color),
        as `adinkra_to_gamma` reads it off the edges one by one."""
        size = self.ranks.size
        index = {x: i for i, x in enumerate(basis)}
        at = list(map(index.__getitem__, self.nodes))
        out = {}
        for c in colors or range(1, len(self.packed)):
            digits = format(self.packed[c], f"0{3 * size}b")[::-1]
            rows = zip(digits[:size], digits[size:2 * size], digits[2 * size:])
            delta = self.ranks.deltas[c]
            m = out[c] = MonomialMatrix(len(basis))
            for r, key in enumerate(rows):
                m._rows[at[r]] = {at[r ^ delta]: _GAMMA_ENTRIES[key]}
        return out


def _gamma_planes(adinkra: Adinkra, ranks: _RankPlanes,
                  k1: list[int]) -> _GammaPlanes:
    """Γ as planes, read off `adinkra.edges`, its dashed-end planes `k1`
    (`_RankPlanes.dashed`) and the heights, each height checked by
    `checked_heights`."""
    heights = checked_heights(
        adinkra, "gamma matrices need both dashing and heights")
    nodes, size = adinkra.nodes, ranks.size
    # k0: bit r set where rank r is a fermion, the same for every color
    k0 = int(bytes(weight(x) & 1 for x in reversed(nodes)).translate(_BITS), 2)
    # the source of row r's entry sits higher than r
    packed = [k0 | d << size | g << 2 * size
              for d, g in zip(k1, ranks.rising(list(map(heights.get, nodes))))]
    return _GammaPlanes(ranks, nodes, packed, ranks.swaps(3))


def adinkra_to_gamma(adinkra: Adinkra, validate: bool = True) -> GammaSet:
    """Read the per-color transformation matrices off the graph.

    Basis: bosons in ascending label order, then fermions.  The entry in
    row t, column s is the coefficient of state s in the transform of
    state t along one edge: the edge sign, times i when t is a fermion,
    times d/dt when s sits above t.  The matrices are kept as planes and
    built on first read (see `GammaSet`).

    `validate` decides odd dashing on the dashed-end planes Γ is read
    from, and runs `verify_odd_dashing` only for a failing adinkra's
    report; then `verify_heights`.
    """
    if adinkra.dashing is None or adinkra.heights is None:
        raise InputError("gamma matrices need both dashing and heights")
    signs = checked_signs(adinkra)
    ranks = _rank_planes(adinkra)
    dashed = ranks.dashed(signs)
    if validate:
        if not _odd_planes(ranks, dashed):
            dash_report = verify_odd_dashing(adinkra)
            raise InputError(f"invalid adinkra: {dash_report.summary()}")
        height_report = verify_heights(adinkra)
        if not height_report:
            raise InputError(f"invalid adinkra: {height_report.summary()}")
    bosons = boson_nodes(adinkra)
    return _planes_gamma_set(_gamma_planes(adinkra, ranks, dashed),
                             bosons + fermion_nodes(adinkra), len(bosons))


def _planes_gamma_set(planes: _GammaPlanes, basis: tuple[int, ...],
                      boson_count: int) -> GammaSet:
    """The `GammaSet` held as `planes`, its matrices built on first read."""
    out = object.__new__(GammaSet)
    out.__dict__.update(basis=basis, boson_count=boson_count, _planes=planes)
    return out


# ---------- algebra checks ----------


@dataclass(frozen=True)
class AlgebraViolation:
    relation: str
    row: int
    col: int
    got: Monomial
    want: Monomial

    def __str__(self) -> str:
        return (
            f"{self.relation} entry ({self.row}, {self.col}): "
            f"got {self.got}, want {self.want}"
        )


class AlgebraReport(VerificationReport):
    """A relation check's outcome; its violations are AlgebraViolations."""

    def violated_relations(self) -> tuple[str, ...]:
        seen = []
        for v in self.violations:
            if v.relation not in seen:
                seen.append(v.relation)
        return tuple(seen)


def _compare(relation: str, got: MonomialMatrix, want: MonomialMatrix,
             out: list) -> None:
    """Report every entry where `got` and `want` differ."""
    for r, (grow, wrow) in enumerate(zip(got._rows, want._rows)):
        if grow == wrow:
            continue
        for c in sorted(grow.keys() | wrow.keys()):
            g, w = grow.get(c, ZERO), wrow.get(c, ZERO)
            if g != w:
                out.append(AlgebraViolation(relation, r, c, g, w))


def check_garden(gammas: GammaSet, stop_early: bool = True) -> AlgebraReport:
    """Verify {Gamma_I, Gamma_J} = 2i * d/dt * delta_IJ.

    A pair of a plane-backed set (see `GammaSet`) is decided on its
    planes, all rows at once.  A pair that fails there, and every pair
    of a set built from matrices, goes through `anticommutator`, whose
    entries give the violations.  A plane-backed set whose `matrices`
    are not yet built builds only the Γ_c of the failing pairs' colors."""
    planes = gammas.__dict__.get("_planes")
    if planes is None:
        mats = gammas.matrices
        colors = sorted(mats)
    else:
        colors = list(range(1, len(planes.packed)))
        mats = gammas.__dict__.get("matrices") or {}

    def matrix(c):
        if c not in mats:
            mats.update(planes.matrices(gammas.basis, (c,)))
        return mats[c]

    violations: list[AlgebraViolation] = []
    for i, ci in enumerate(colors):
        for cj in colors[i:]:
            if planes is not None and planes.holds(ci, cj):
                continue
            try:
                got = anticommutator(matrix(ci), matrix(cj))
            except GradedSumError as exc:
                violations.append(
                    AlgebraViolation(
                        f"{{G{ci}, G{cj}}}: {exc}", -1, -1, ZERO, ZERO
                    )
                )
                if stop_early:
                    return AlgebraReport("garden", tuple(violations))
                continue
            want = (MonomialMatrix.identity(gammas.dim, Monomial(0, 2, 1))
                    if ci == cj else MonomialMatrix(gammas.dim))
            _compare(f"{{G{ci}, G{cj}}}", got, want, violations)
            if violations and stop_early:
                return AlgebraReport("garden", tuple(violations))
    return AlgebraReport("garden", tuple(violations))


def strip_derivatives(m: MonomialMatrix) -> MonomialMatrix:
    """Reduce each entry to a bare sign, discarding phase and d/dt."""
    return m.map_entries(Monomial.drop_phase_and_derivative)


def check_block_transpose(gammas: GammaSet) -> AlgebraReport:
    """Off-diagonal blocks of each Gamma are mutual transposes, and
    cross-color products of opposite blocks are antisymmetric, once
    entries are stripped to bare signs."""
    br, fr = gammas.boson_range(), gammas.fermion_range()
    violations: list[AlgebraViolation] = []
    stripped = {
        c: strip_derivatives(m) for c, m in sorted(gammas.matrices.items())
    }
    blocks = {
        c: (m.block(br, fr), m.block(fr, br))
        for c, m in stripped.items()
    }
    for c, (upper, lower) in blocks.items():
        _compare(f"G{c} block transpose", upper.transpose(), lower,
                 violations)
    for ci, (_, lower_i) in blocks.items():
        for cj, (upper_j, _) in blocks.items():
            if ci == cj:
                continue
            prod = mat_mul(lower_i, upper_j)
            _compare(f"G{ci}·G{cj} antisymmetry", prod.transpose(),
                     mat_neg(prod), violations)
    return AlgebraReport("block-transpose", tuple(violations))


# ---------- quaternion checks ----------

def canonical_quaternion_matrices() -> dict[str, MonomialMatrix]:
    """The standard signed-permutation representation of i, j, k."""
    return {
        "i": MonomialMatrix.from_rows([
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ]),
        "j": MonomialMatrix.from_rows([
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ]),
        "k": MonomialMatrix.from_rows([
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ]),
    }


def check_quaternion(matrices: Mapping[str, MonomialMatrix]) -> AlgebraReport:
    """Verify i^2 = j^2 = k^2 = ijk = -1 and pairwise anticommutation."""
    for name in ("i", "j", "k"):
        if name not in matrices:
            raise InputError(f"missing quaternion matrix {name!r}")
    mi, mj, mk = matrices["i"], matrices["j"], matrices["k"]
    dims = {m.dim for m in (mi, mj, mk)}
    if dims != {4}:
        raise InputError(f"quaternion matrices must be 4x4, got dims {dims}")
    for name, m in (("i", mi), ("j", mj), ("k", mk)):
        for r, c, mono in m.iter_entries():
            if mono.dpow != 0 or mono.im != 0 or mono.re not in (1, -1):
                raise InputError(
                    f"matrix {name!r} entry ({r}, {c}) = {mono} is not a "
                    "plain sign"
                )
    neg_id = MonomialMatrix.identity(4, MINUS_ONE)
    zero = MonomialMatrix(4)
    violations: list[AlgebraViolation] = []
    _compare("i^2", mat_mul(mi, mi), neg_id, violations)
    _compare("j^2", mat_mul(mj, mj), neg_id, violations)
    _compare("k^2", mat_mul(mk, mk), neg_id, violations)
    _compare("ijk", mat_mul(mat_mul(mi, mj), mk), neg_id, violations)
    _compare("{i,j}", anticommutator(mi, mj), zero, violations)
    _compare("{i,k}", anticommutator(mi, mk), zero, violations)
    _compare("{j,k}", anticommutator(mj, mk), zero, violations)
    return AlgebraReport("quaternion", tuple(violations))
