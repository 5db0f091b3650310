"""The quaternion family: a complete graph on four nodes with three
edge colors, directions encoding the signs of the i, j, k matrices.

The graph is the 2-dimensional quotient of the 3-cube by the span of
111 — a code with an odd-weight word, so there is no boson/fermion
split and no height function; the structure lives entirely in the edge
directions.  Color 1 carries k, color 2 carries j, color 3 carries i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .algebra import MINUS_ONE, ONE, MonomialMatrix, check_quaternion
from .codes import LinearBinaryCode
from .errors import InputError
from .graph import Adinkra, Edge, build_quotient_skeleton

QUATERNION_CODE = LinearBinaryCode(3, (0b111,))
COLOR_UNITS = {1: "k", 2: "j", 3: "i"}


def quaternion_skeleton() -> Adinkra:
    """The four-node, six-edge directed-scheme graph."""
    return build_quotient_skeleton(2, QUATERNION_CODE)


def quaternion_edges() -> tuple[Edge, ...]:
    return quaternion_skeleton().edges


def _node_index(skeleton: Adinkra) -> dict[int, int]:
    return {label: i for i, label in enumerate(skeleton.nodes)}


def matrices_from_directions(
    directions: Mapping[Edge, int]
) -> dict[str, MonomialMatrix]:
    """Build i, j, k from a direction bit per edge.

    Bit 1 points the arrow from the smaller endpoint to the larger; the
    unit's matrix gets +1 in row tail, column head and -1 opposite, so
    each matrix is an antisymmetric signed permutation.
    """
    skeleton = quaternion_skeleton()
    index = _node_index(skeleton)
    out = {}
    for color, unit in COLOR_UNITS.items():
        m = MonomialMatrix(4)
        for e in skeleton.edges:
            if e.color != color:
                continue
            if e not in directions:
                raise InputError(f"direction missing for edge {e}")
            bit = directions[e]
            if bit not in (0, 1):
                raise InputError(f"direction for {e} must be 0 or 1, got {bit}")
            head = e.v if bit else e.u
            tail = e.u if bit else e.v
            m.set_entry(index[tail], index[head], ONE)
            m.set_entry(index[head], index[tail], MINUS_ONE)
        out[unit] = m
    return out


def direction_vector(directions: Mapping[Edge, int]) -> tuple[int, ...]:
    """Direction bits in canonical edge order."""
    return tuple(directions[e] for e in quaternion_edges())


def directions_from_vector(bits) -> dict[Edge, int]:
    edges = quaternion_edges()
    bits = tuple(int(b) for b in bits)
    if len(bits) != len(edges) or any(b not in (0, 1) for b in bits):
        raise InputError(f"need {len(edges)} direction bits, got {bits!r}")
    return dict(zip(edges, bits))


def valid_direction_vectors() -> tuple[tuple[int, ...], ...]:
    """All direction assignments whose matrices satisfy the relations."""
    edges = quaternion_edges()
    good = []
    for bits in product((0, 1), repeat=len(edges)):
        mats = matrices_from_directions(dict(zip(edges, bits)))
        if check_quaternion(mats).ok:
            good.append(bits)
    return tuple(good)


CANONICAL_DIRECTIONS = (1, 1, 1, 0, 1, 0)


@dataclass(frozen=True)
class QuaternionCompletion:
    """One way to orient the free edges; valid when the relations hold."""

    directions: tuple[int, ...]
    matrices: Mapping[str, MonomialMatrix]
    valid: bool


def quaternion_baobab_completions(
    fixed: Mapping[Edge, int]
) -> tuple[QuaternionCompletion, ...]:
    """Enumerate all orientations of the unfixed edges.

    Returns every completion with its matrices and validity flag, in
    ascending order of the free bits; the fixed bits are honored
    verbatim.
    """
    edges = quaternion_edges()
    for e, bit in fixed.items():
        if e not in edges:
            raise InputError(f"unknown edge {e}")
        if bit not in (0, 1):
            raise InputError(f"direction for {e} must be 0 or 1, got {bit}")
    free = [e for e in edges if e not in fixed]
    out = []
    for bits in product((0, 1), repeat=len(free)):
        directions = dict(fixed)
        directions.update(zip(free, bits))
        mats = matrices_from_directions(directions)
        report = check_quaternion(mats)
        out.append(
            QuaternionCompletion(direction_vector(directions), mats, report.ok)
        )
    return tuple(out)
