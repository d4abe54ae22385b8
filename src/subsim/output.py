"""Row-at-a-time text formatting shared by the file writers.

Each row of an array is formatted by one bytes ``%`` operation, so a
row costs one Python call instead of one per value. Values come from
``ndarray.tolist()``, i.e. as Python floats and ints, and bytes ``%r``
is ``ascii()``, which for a float equals ``repr``: the bytes are those
of formatting every value on its own with the same rule.
"""

from __future__ import annotations

import numpy as np

# Array bytes converted and joined per write: about 680 colored OBJ vertices or 4
# rows of a 1024-bin A-plot. As Python objects and formatted text a
# chunk takes some 10x its array size, so it is bounded by bytes, not
# rows, to keep wide rows from holding a whole ping or grid at once.
CHUNK_BYTES = 32 * 1024


def write_rows(fh, fmt: bytes, rows: np.ndarray) -> None:
    """Write ``fmt % tuple(row)`` for each row of ``rows`` to the binary file ``fh``.

    ``rows`` is a 2-D array, or a record array for rows that mix floats
    and ints (its ``tolist()`` yields tuples).
    """
    step = max(1, CHUNK_BYTES // max(1, rows[:1].nbytes))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step].tolist()
        fh.write(b"".join([fmt % tuple(row) for row in chunk]))
