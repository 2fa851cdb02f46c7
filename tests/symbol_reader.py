"""Reading a symbol on an index array, for tests.

The package reads a symbol only on a ``Grid`` and gets the node's cached
values unbroadcast; tests index the values by (row, n), so this helper
builds the grid and broadcasts them to its shape.
"""

import numpy as np

from fockbundle.symbols import DiagonalSymbol, Grid, GridValues


def read_symbol(sym: DiagonalSymbol, n, thetas=None) -> GridValues:
    """``sym`` on ``n``, a Grid or an int64 index array with the detunings ``thetas`` of the rows
    (none for a grid without them), broadcast to (rows, N), or (N,) without detunings, with
    numpy's warnings silenced, as a scan silences them."""
    grid = n if isinstance(n, Grid) else Grid(n, thetas)
    shape = grid.n.shape if grid.theta is None else (grid.theta.shape[0], grid.n.size)
    with np.errstate(all="ignore"):
        values = sym(grid)
    return GridValues(*(None if v is None else np.broadcast_to(v, shape) for v in values))
