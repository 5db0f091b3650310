"""Graphviz DOT rendering for adinkras and baobabs."""

from __future__ import annotations

from .baobab import Baobab, _check_head
from .codes import bit_string, read_bits, weight
from .errors import InputError
from .graph import Adinkra, _graph_table, checked_heights, checked_signs

_PALETTE = [
    "red", "blue", "green", "orange",
    "purple", "brown", "cyan", "magenta", "olive", "navy",
]


def color_name(color: int) -> str:
    return _PALETTE[(color - 1) % len(_PALETTE)]


def _node_line(label: str, filled: bool) -> str:
    style = (
        'style=filled, fillcolor=black, fontcolor=white'
        if filled else 'style=solid'
    )
    return f'  "{label}" [shape=circle, {style}];'


def adinkra_to_dot(adinkra: Adinkra) -> str:
    """Render nodes (fermions filled), colored edges, dashes, and
    heights as same-rank rows when present.  A graph that is not its
    code's quotient, a missing or bad sign and a missing or bad height
    each raise one InputError."""
    _graph_table(adinkra)
    length = adinkra.length
    signs = checked_signs(adinkra) or [1] * len(adinkra.edges)
    heights = adinkra.heights
    if heights is not None:
        heights = checked_heights(adinkra, "adinkra has no heights")
    lines = ["graph adinkra {"]
    append = lines.append
    append("  rankdir=BT;")
    for x in adinkra.nodes:
        append(_node_line(bit_string(x, length), weight(x) % 2 == 1))
    if heights is not None:
        by_height: dict[int, list[int]] = {}
        for x in adinkra.nodes:
            by_height.setdefault(heights[x], []).append(x)
        for h in sorted(by_height):
            row = " ".join(f'"{bit_string(x, length)}"'
                           for x in sorted(by_height[h]))
            append(f"  {{ rank=same; {row} }}")
    for e, sign in zip(adinkra.edges, signs):
        attrs = [f"color={color_name(e.color)}"]
        if sign == -1:
            attrs.append("style=dashed")
        u, v = bit_string(e.u, length), bit_string(e.v, length)
        if heights is not None:
            lo, hi = (u, v) if heights[e.u] < heights[e.v] else (v, u)
            attrs.append("dir=forward")
            append(f'  "{lo}" -- "{hi}" [{", ".join(attrs)}];')
        else:
            append(f'  "{u}" -- "{v}" [{", ".join(attrs)}];')
    append("}")
    return "\n".join(lines) + "\n"


def baobab_to_dot(baobab: Baobab) -> str:
    """Render the determining subgraph: tree edges solid, cycle edges
    bold, pinned arrows directed, with the carried bit on each label.
    Bits off the slot edges, a bit not 0 or 1 and a pinned head off its
    edge each raise one InputError."""
    slots = baobab.slot_edges()
    if baobab.bits.keys() != set(slots):
        raise InputError(
            f"baobab bits must cover exactly its {len(slots)} slot edges")
    read_bits(map(baobab.bits.__getitem__, slots), len(slots),
              "the baobab slots")
    for e, head in baobab.pinned.items():
        _check_head(e, head)
    length = baobab.length
    lines = ["graph baobab {"]
    append = lines.append
    for x in sorted({e.u for e in slots} | {e.v for e in slots}):
        append(_node_line(bit_string(x, length), weight(x) % 2 == 1))

    def edge_line(e, attrs: list[str]) -> None:
        # u -- v, or tail -- head for a pinned arrow
        ends = e.u, e.v
        if e in baobab.pinned:
            attrs.append("dir=forward")
            head = baobab.pinned[e]
            ends = e.u if head == e.v else e.v, head
        tail, head = (bit_string(x, length) for x in ends)
        append(f'  "{tail}" -- "{head}" [{", ".join(attrs)}];')

    for e in slots:
        attrs = [f"color={color_name(e.color)}", f'label="{baobab.bits[e]}"']
        if e in baobab.cycle_edges:
            attrs.append("penwidth=2")
        edge_line(e, attrs)
    for e in sorted(baobab.pinned, key=lambda e: (e.u, e.color)):
        if e not in baobab.bits:
            edge_line(e, [f"color={color_name(e.color)}"])
    append("}")
    return "\n".join(lines) + "\n"
