"""The one CSV writer behind every table the package exports.

Cells get the bytes ``csv.writer`` gave for ``repr(float(x))`` fed cell by
cell: a float is ``repr`` of a Python float, an int or a str is written as it
is, and every line ends in ``\\r\\n``.  A column given as one cell, not a
sequence, is formatted once and fills every row of its block.  A cell is blank
where its column is ``None``, where its column is shorter than its block's
longest column, or where the cell is ``None``.  No cell is quoted, so a str
cell must hold no comma, quote or line break.
"""

from itertools import repeat, zip_longest

import numpy as np

# Rows formatted and written at once; bounds the text held in memory.
_CHUNK_ROWS = 1024


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (str, int, np.integer)):
        return str(x)
    return repr(float(x))


def _is_cell(column) -> bool:
    """Whether a column is given as one cell rather than a sequence."""
    return column is None or isinstance(column, (str, int, float, np.generic))


def _cells(column):
    """Text of each cell of one column slice."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        # tolist() yields Python floats and ints, whose repr is the cell
        return map(repr, column.tolist())
    return map(_cell, column)


def write_table(path, header, blocks) -> None:
    """Write ``header``, then the rows of each block: a sequence of columns,
    one per header name, each an array, a list or one cell (``None`` is a
    blank column)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            n_rows = max((len(c) for c in block if not _is_cell(c)), default=0)
            for start in range(0, n_rows, _CHUNK_ROWS):
                n = min(_CHUNK_ROWS, n_rows - start)
                cells = [repeat(_cell(c), n) if _is_cell(c)
                         else _cells(c[start:start + _CHUNK_ROWS]) for c in block]
                rows = zip_longest(*cells, fillvalue="")
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
