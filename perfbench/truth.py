"""Ground truth: a brute-force numpy group-by over the fact table.

Every group-by of the cube is at most as large as the base level (442,368
cells for apb_small), so the truth for one level is a *dense* array over
the level's cell grid, filled by one ``bincount`` over the fact rows after
mapping each row's base ordinals up the dimension hierarchies.  Levels are
computed lazily, after the timed window, the first time an answer at that
level is checked.

Appends (the ``ingest`` workload) are handled by additivity: the merged
fact table of generation ``g`` is the base rows plus append batches
``1..g``, so its group-by over a chunk's region is the base group-by plus
each batch's rows that fall in that region.

Clients do not keep answer payloads (a run's answers would dominate the
benchmark's memory); each answered chunk is reduced to a :func:`digest`
as it arrives and compared with the digest of the truth later.  The
digest hashes every cell: it sums ``value * w(cell)`` and ``count *
w'(cell)`` modulo 2**64 with pseudo-random 64-bit weights per cell, which
is independent of cell order and exact, because the measures are integer
valued.  Two different cell sets collide with probability about 2**-64.
"""

from __future__ import annotations

import numpy as np

def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser: a pseudo-random 64-bit weight per integer."""
    x = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def digest(schema, level, flat: np.ndarray, columns) -> tuple:
    """Order-independent hash of a chunk's cells: ``flat`` are the cells'
    indices in the level's grid, ``columns`` the values, counts and extra
    measures.  A non-integer measure makes the digest unmatchable."""
    if any(not np.array_equal(c, np.rint(c)) for c in columns):
        return ("non-integer measure",)
    salt = np.uint64(schema.level_index(level) << 40)
    weight = _mix(flat.astype(np.uint64) + salt)
    sums = []
    with np.errstate(over="ignore"):
        for k, column in enumerate(columns):
            w = weight if k == 0 else _mix(weight + np.uint64(k))
            sums.append(int((column.astype(np.int64).astype(np.uint64)
                             * w).sum(dtype=np.uint64)))
    return (len(flat), *sums)


def chunk_digest(schema, chunk) -> tuple:
    """The digest of an answered chunk (``()`` if a cell lies off the
    level's grid)."""
    shape = schema.chunks.cell_shape(chunk.level)
    try:
        flat = np.ravel_multi_index(
            tuple(np.asarray(c, dtype=np.int64) for c in chunk.coords), shape
        )
    except ValueError:
        return ()
    return digest(schema, chunk.level, flat,
                  (chunk.values, chunk.counts, *chunk.extras))


class GroundTruth:
    """Dense per-level group-bys of a fact table plus its append batches."""

    def __init__(self, schema, facts) -> None:
        self.schema = schema
        self._base = _Rows(schema, facts)
        self._batches: list[_Rows] = []
        self._dense: dict[tuple, tuple[np.ndarray, ...]] = {}
        self._digests: dict[tuple, tuple] = {}

    def add_batch(self, batch) -> None:
        """Record the rows of the next append generation."""
        self._batches.append(_Rows(self.schema, batch))

    def _level(self, level) -> tuple[np.ndarray, ...]:
        """``(values, counts, *extras)`` of the base rows, dense over the
        level's cell grid."""
        dense = self._dense.get(level)
        if dense is None:
            shape = self.schema.chunks.cell_shape(level)
            flat = self._base.flat(level)
            size = int(np.prod(shape))
            dense = tuple(
                np.bincount(flat, weights=column, minlength=size).reshape(shape)
                for column in self._base.columns
            )
            self._dense[level] = dense
        return dense

    def expected(self, level, number: int, generation: int = 0):
        """The chunk's truth at ``generation``: ``(spans, arrays)`` where
        each array is dense over the chunk's cell rectangle."""
        spans = self.schema.chunks.chunk_cell_spans(level, number)
        window = tuple(slice(lo, hi) for lo, hi in spans)
        arrays = [column[window].copy() for column in self._level(level)]
        for batch in self._batches[:generation]:
            local, rows = batch.rows_in(level, spans)
            for array, column in zip(arrays, batch.columns):
                np.add.at(array, local, column[rows])
        return spans, arrays

    def expected_digest(self, level, number: int, generation: int = 0):
        key = (level, number, min(generation, len(self._batches)))
        found = self._digests.get(key)
        if found is None:
            found = self._digests[key] = self._expected_digest(*key)
        return found

    def _expected_digest(self, level, number: int, generation: int):
        spans, arrays = self.expected(level, number, generation)
        occupied = np.nonzero(arrays[1])
        shape = self.schema.chunks.cell_shape(level)
        flat = np.ravel_multi_index(
            tuple(local + lo for local, (lo, _) in zip(occupied, spans)),
            shape,
        )
        return digest(self.schema, level, flat,
                      tuple(array[occupied] for array in arrays))

    def chunk_total(self, level, number: int) -> float:
        """SUM of the measure over one chunk (generation 0)."""
        _, arrays = self.expected(level, number)
        return float(arrays[0].sum())


class _Rows:
    """Fact rows with their base ordinals mapped lazily to each level."""

    def __init__(self, schema, facts) -> None:
        self.schema = schema
        self.coords = tuple(np.asarray(c, dtype=np.int64) for c in facts.coords)
        self.columns = (
            np.asarray(facts.values, dtype=np.float64),
            np.asarray(facts.counts, dtype=np.float64),
            *(np.asarray(e, dtype=np.float64) for e in facts.extras),
        )
        self._mapped: dict[tuple[int, int], np.ndarray] = {}

    def mapped(self, dim_index: int, level: int) -> np.ndarray:
        key = (dim_index, level)
        out = self._mapped.get(key)
        if out is None:
            dim = self.schema.dimensions[dim_index]
            out = np.asarray(
                dim.map_ordinals(dim.height, level, self.coords[dim_index]),
                dtype=np.int64,
            )
            self._mapped[key] = out
        return out

    def flat(self, level) -> np.ndarray:
        shape = self.schema.chunks.cell_shape(level)
        flat = np.zeros(len(self.columns[0]), dtype=np.int64)
        for d, (l, extent) in enumerate(zip(level, shape)):
            flat *= extent
            flat += self.mapped(d, l)
        return flat

    def rows_in(self, level, spans):
        """``(local coordinates, row mask)`` of the rows inside a chunk's
        cell rectangle at ``level``."""
        mask = np.ones(len(self.columns[0]), dtype=bool)
        mapped = [self.mapped(d, l) for d, l in enumerate(level)]
        for coords, (lo, hi) in zip(mapped, spans):
            mask &= (coords >= lo) & (coords < hi)
        local = tuple(
            coords[mask] - lo for coords, (lo, _) in zip(mapped, spans)
        )
        return local, mask
