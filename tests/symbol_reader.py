"""Reading a symbol on an index array, and walking the nodes of built objects, for tests.

The package reads a symbol only on a ``Grid`` and gets the node's cached
values unbroadcast; tests index the values by (row, n), so this helper
builds the grid and broadcasts them to its shape.
"""

import numpy as np

from fockbundle.opmatrix import OpMatrix
from fockbundle.symbols import THETA, DiagonalSymbol, Grid, GridValues


def read_symbol(sym: DiagonalSymbol, n, thetas=None) -> GridValues:
    """``sym`` on ``n``, a Grid or an int64 index array with the detunings ``thetas`` of the rows
    (none for a grid without them), broadcast to (rows, N), or (N,) without detunings, with
    numpy's warnings silenced, as a scan silences them."""
    grid = n if isinstance(n, Grid) else Grid(n, thetas)
    shape = grid.n.shape if grid.theta is None else (grid.theta.shape[0], grid.n.size)
    with np.errstate(all="ignore"):
        values = sym(grid)
    return GridValues(*(None if v is None else np.broadcast_to(v, shape) for v in values))


def coefficient_nodes(*objects):
    """Every coefficient node reachable from the operators and operator matrices ``objects``."""
    ops = []
    for obj in objects:
        ops += [e for row in obj.entries for e in row] if isinstance(obj, OpMatrix) else [obj]
    stack, seen = [c for op in ops for _, c in op.terms], {}
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [arg for arg in node.args if isinstance(arg, DiagonalSymbol)]
    return list(seen.values())


def r_nodes(*objects):
    """(offset c, node) of every R(N + c) = sqrt(N + c + theta theta) node reachable from ``objects``,
    whatever its guard, ordered by offset."""
    found = []
    for node in coefficient_nodes(*objects):
        radicand = node.args[0] if node.op == "sqrt" else None
        if radicand is not None and radicand.op == "add" and radicand.args[1].args == (THETA, THETA):
            index = radicand.args[0]
            if index.op == "index" and index.args[1] == 0.0:
                found.append((index.args[0], node))
    return sorted(found, key=lambda pair: pair[0])
