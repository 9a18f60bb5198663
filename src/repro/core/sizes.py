"""Chunk-size estimation.

Plan costs must be *deterministic* and independent of what happens to be
materialised, or VCMC's maintained ``Cost`` array would be ill-defined.
This estimator gives the expected number of occupied cells of any chunk at
any level, from just the base tuple count, assuming uniform placement
(Cardenas' formula).  The data generator samples uniformly by default, so
the estimate tracks actual sizes closely; skewed data only perturbs the
constant factors, not the orderings the experiments measure.

Clustered data would mislead those uniform fills, so
:meth:`SizeEstimator.exact` calibrates every level's fill with its true
distinct-cell count instead.  When the base cube has no more cells than
the fact table's coordinate columns have bytes, the counts come from one
sweep down the lattice: the facts are marked once into a boolean
occupancy cube of the base level, and every other level's cube is the
``logical_or.reduceat`` of its smallest immediate parent's cube along the
one dimension they differ in.  Otherwise (a sparse table over a huge cube,
or a small appended batch) each level is counted on its own with
``np.unique`` over the fact coordinates mapped to it.  Both paths give the
same counts, so the choice never changes a fill.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.schema.cube import CubeSchema, Level

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.generator import FactTable


class SizeEstimator:
    """Expected occupied-cell counts per chunk / per level.

    Parameters
    ----------
    schema:
        The cube schema.
    total_base_tuples:
        Number of distinct cells in the base fact table.
    """

    def __init__(self, schema: CubeSchema, total_base_tuples: int) -> None:
        self.schema = schema
        self.total_base_tuples = int(total_base_tuples)
        self._fill: dict[Level, float] = {}
        self._chunk_cells: dict[tuple[Level, int], int] = {}
        self._exact = False
        """True when ``_fill`` was calibrated from a fact table (see
        :meth:`exact`); drives how :meth:`observe_append` recalibrates."""

    @classmethod
    def exact(cls, schema: CubeSchema, facts: "FactTable") -> "SizeEstimator":
        """An estimator calibrated with the *exact* per-level sizes.

        Every group-by's fill is its true distinct-cell count over its
        cell count; the base level's is ``facts.num_tuples`` over its cell
        count (fact cells are unique).  The counts come from one lattice
        sweep over a dense occupancy cube when that cube is no larger than
        the fact table's coordinate columns, else from one ``np.unique``
        per level (see the module docstring).  Per-chunk estimates still
        assume uniformity within the level, but level totals — which drive
        path costs — are exact.  Use this when the data is clustered or
        skewed and the analytic (uniform) fills would mislead the
        cost-based strategies.
        """
        estimator = cls(schema, facts.num_tuples)
        estimator._fill = estimator._fills_of_facts(facts)
        estimator._exact = True
        return estimator

    def _fills_of_facts(self, facts: "FactTable") -> dict[Level, float]:
        """The exact occupied-cell fraction of ``facts`` at every level."""
        schema = self.schema
        base = schema.base_level
        if _dense_fits(schema, facts):
            distinct = _distinct_by_sweep(schema, facts)
        else:
            distinct = {
                level: _distinct_by_level(schema, facts, level)
                for level in schema.all_levels()
                if level != base
            }
        distinct[base] = facts.num_tuples
        return {
            level: distinct[level] / max(schema.num_cells(level), 1)
            for level in schema.all_levels()
        }

    def observe_append(
        self, facts: "FactTable", total_base_tuples: int
    ) -> None:
        """Recalibrate incrementally after a warehouse append.

        ``total_base_tuples`` is the backend's distinct-cell count AFTER
        the merge (appended cells may collide with stored ones, so it is
        not derivable from the batch alone).  Analytic fills are simply
        dropped — :meth:`level_fill` recomputes them lazily from the new
        total.  Exact fills are updated per level from the batch's own
        exact fill under the independence approximation
        ``f' = 1 - (1 - f)(1 - f_batch)`` (the expected union occupancy);
        the base level, where the union size is known exactly, is set
        exactly.
        """
        self.total_base_tuples = int(total_base_tuples)
        if not self._exact:
            self._fill.clear()
            return
        for level, batch_fill in self._fills_of_facts(facts).items():
            if level == self.schema.base_level:
                self._fill[level] = self.total_base_tuples / max(
                    self.schema.num_cells(level), 1
                )
            else:
                old = self._fill[level]
                self._fill[level] = old + batch_fill - old * batch_fill

    def level_fill(self, level: Level) -> float:
        """Expected fraction of occupied cells at ``level``.

        ``1 - (1 - 1/C)^N`` for ``C`` cells and ``N`` base tuples thrown in
        uniformly (computed stably via log1p/expm1).
        """
        fill = self._fill.get(level)
        if fill is None:
            cells = self.schema.num_cells(level)
            if cells <= 1:
                fill = 1.0
            else:
                fill = -math.expm1(
                    self.total_base_tuples * math.log1p(-1.0 / cells)
                )
            self._fill[level] = fill
        return fill

    def chunk_tuples(self, level: Level, number: int) -> float:
        """Expected occupied cells of one chunk."""
        key = (level, number)
        cells = self._chunk_cells.get(key)
        if cells is None:
            cells = self.schema.chunks.chunk_cell_count(level, number)
            self._chunk_cells[key] = cells
        return cells * self.level_fill(level)

    def level_tuples(self, level: Level) -> float:
        """Expected occupied cells of an entire group-by."""
        return self.schema.num_cells(level) * self.level_fill(level)

    def level_bytes(self, level: Level) -> float:
        return self.level_tuples(level) * self.schema.bytes_per_tuple

    def chunk_bytes(self, level: Level, number: int) -> float:
        return self.chunk_tuples(level, number) * self.schema.bytes_per_tuple


def _dense_fits(schema: CubeSchema, facts: "FactTable") -> bool:
    """Whether the one-byte-per-cell base occupancy cube is no larger than
    the coordinate columns ``facts`` already holds in memory."""
    return schema.num_cells(schema.base_level) <= sum(
        c.nbytes for c in facts.coords
    )


def _distinct_by_level(schema: CubeSchema, facts: "FactTable", level: Level) -> int:
    """Distinct occupied cells of ``facts`` at ``level``, counted alone."""
    coords = [
        dim.map_ordinals(dim.height, coarse, facts.coords[d])
        for d, (dim, coarse) in enumerate(zip(schema.dimensions, level))
    ]
    cell_shape = schema.chunks.cell_shape(level)
    return len(np.unique(np.ravel_multi_index(coords, cell_shape)))


def _distinct_by_sweep(schema: CubeSchema, facts: "FactTable") -> dict[Level, int]:
    """Distinct occupied cells of ``facts`` at every non-base level.

    Marks the facts into a boolean occupancy cube of the base level, then
    walks the lattice base-first (reverse row-major order puts every parent
    before its children).  Each level's cube is its smallest immediate
    parent's, OR-reduced along the one dimension where the parent is a
    step finer, at that step's first-fine boundaries.  Every reduceat group
    is non-empty (hierarchy maps are monotone, contiguous and surjective),
    so the reduction is exact.  A cube is dropped as soon as the last level
    derived from it is done.
    """
    base = schema.base_level
    shape = schema.chunks.cell_shape(base)
    occupied = np.zeros(math.prod(shape), dtype=bool)
    occupied[np.ravel_multi_index(facts.coords, shape)] = True
    cubes = {base: occupied.reshape(shape)}

    levels = list(schema.all_levels())[::-1][1:]
    source = {
        level: min(schema.parents_of(level), key=schema.num_cells)
        for level in levels
    }
    pending = Counter(source.values())
    counts: dict[Level, int] = {}
    for level in levels:
        parent = source[level]
        d = next(i for i, (a, b) in enumerate(zip(level, parent)) if a != b)
        firsts = schema.dimensions[d].first_fine_ordinals(level[d], parent[d])
        cube = np.logical_or.reduceat(cubes[parent], firsts[:-1], axis=d)
        counts[level] = int(np.count_nonzero(cube))
        pending[parent] -= 1
        if not pending[parent]:
            del cubes[parent]
        if pending[level]:
            cubes[level] = cube
    return counts
