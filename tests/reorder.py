"""Propagation in a custom plaquette order.

Propagation always reads the skeleton's shared plaquette table, so a
test that needs another firing order runs on a copy whose table lists
the plaquettes in that order.
"""

from dataclasses import replace


def reordered(skeleton, order):
    """A copy of `skeleton` whose plaquette table lists `order` and holds
    no compiled NDXOR program, so propagation on it runs the engine over
    the plaquettes in that order, slot sets included.  The copy starts
    with an empty table (`dataclasses.replace`) and builds its id tables
    from `order` on first use; the skeleton's own table is not touched.
    """
    copy = replace(skeleton)
    copy._table.plaquettes = tuple(order)
    copy._table.program = False
    return copy
