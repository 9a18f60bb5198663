"""Dimension hierarchies with chunked value domains.

A :class:`Dimension` models one axis of the cube.  It has ``height + 1``
levels; level 0 is the fully aggregated ALL level (cardinality 1) and level
``height`` is the base (most detailed) level.  Values at every level are
dense ordinals ``0 .. cardinality-1``, ordered so that the hierarchy is
contiguous: all ordinals sharing a parent are adjacent.  That ordering is
what makes range-based chunks respect the hierarchy.

Each level's ordinal domain is partitioned into contiguous *chunk ranges*.
Construction validates the DRSN98 closure property: every chunk boundary at
an aggregated level, pushed down one level, lands on a chunk boundary of the
more detailed level.  By induction the property then holds between any pair
of levels, so an aggregated chunk always maps to a whole contiguous span of
chunks at any more detailed level.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.util.errors import ChunkAlignmentError, SchemaError


class LevelMapTable:
    """Memoised ordinal-mapping tables for one dimension.

    ``lookup(fine_level, coarse_level)`` returns the precomputed ``int64``
    ancestor array for that level pair (so mapping a batch of ordinals is
    the single fancy-index ``table[ords]``), or ``None`` for the identity
    pair ``fine == coarse``.  Every valid pair is materialised at
    construction — the hot aggregation kernel pays one dict probe and no
    per-call arithmetic or validation.
    """

    __slots__ = ("_name", "_tables")

    def __init__(
        self,
        name: str,
        to_coarse: Sequence[dict[int, np.ndarray]],
        num_levels: int,
    ) -> None:
        tables: dict[tuple[int, int], np.ndarray | None] = {}
        for fine in range(num_levels):
            tables[(fine, fine)] = None
            for coarse, table in to_coarse[fine].items():
                tables[(fine, coarse)] = table
        self._name = name
        self._tables = tables

    def lookup(self, fine_level: int, coarse_level: int) -> np.ndarray | None:
        """The mapping table for a level pair (``None`` = identity)."""
        try:
            return self._tables[(fine_level, coarse_level)]
        except KeyError:
            raise SchemaError(
                f"dimension {self._name!r}: cannot map ordinals from level "
                f"{fine_level} to the more detailed level {coarse_level}"
            ) from None


class Dimension:
    """One dimension of the cube: a value hierarchy plus per-level chunking.

    Parameters
    ----------
    name:
        Dimension name, e.g. ``"Product"``.
    cardinalities:
        Number of distinct values at each level, most aggregated first.
        ``cardinalities[0]`` must be 1 (the ALL value).
    parent_maps:
        ``parent_maps[l]`` (for ``l >= 1``) maps each ordinal at level ``l``
        to its ancestor ordinal at level ``l - 1``.  Each map must be
        monotone non-decreasing (hierarchy contiguity) and surjective.
        Entry 0 is ignored and may be ``None``.
    chunk_boundaries:
        ``chunk_boundaries[l]`` is a strictly increasing integer sequence
        starting at 0 and ending at ``cardinalities[l]``; consecutive pairs
        delimit the chunk ranges of level ``l``.
    level_names:
        Optional human-readable level names, most aggregated first.
    """

    def __init__(
        self,
        name: str,
        cardinalities: Sequence[int],
        parent_maps: Sequence[np.ndarray | Sequence[int] | None],
        chunk_boundaries: Sequence[Sequence[int]],
        level_names: Sequence[str] | None = None,
    ) -> None:
        self.name = name
        self.cardinalities = tuple(int(c) for c in cardinalities)
        if not self.cardinalities:
            raise SchemaError(f"dimension {name!r}: needs at least one level")
        if self.cardinalities[0] != 1:
            raise SchemaError(
                f"dimension {name!r}: level 0 is the ALL level and must have "
                f"cardinality 1, got {self.cardinalities[0]}"
            )
        for l in range(1, len(self.cardinalities)):
            if self.cardinalities[l] < self.cardinalities[l - 1]:
                raise SchemaError(
                    f"dimension {name!r}: cardinality must not shrink towards "
                    f"the base level ({self.cardinalities})"
                )

        if level_names is None:
            level_names = [f"{name}.L{l}" for l in range(len(self.cardinalities))]
        if len(level_names) != len(self.cardinalities):
            raise SchemaError(
                f"dimension {name!r}: {len(level_names)} level names for "
                f"{len(self.cardinalities)} levels"
            )
        self.level_names = tuple(level_names)

        self._parent_maps = self._validate_parent_maps(parent_maps)
        self._boundaries = self._validate_boundaries(chunk_boundaries)
        self._validate_closure()
        self._to_coarse = self._build_coarse_maps()
        self._first_fine = self._build_first_fine_maps()
        self.level_map = LevelMapTable(
            name, self._to_coarse, len(self.cardinalities)
        )

    # ------------------------------------------------------------------ #
    # construction helpers

    @classmethod
    def uniform(
        cls,
        name: str,
        cardinalities: Sequence[int],
        chunk_counts: Sequence[int],
        level_names: Sequence[str] | None = None,
    ) -> "Dimension":
        """Build a dimension with uniform fan-out and equal-width chunks.

        Every level's cardinality must be an exact multiple of the previous
        one (each value at level ``l-1`` has the same number of level-``l``
        children) and of its chunk count.
        """
        cards = [int(c) for c in cardinalities]
        counts = [int(c) for c in chunk_counts]
        if len(cards) != len(counts):
            raise SchemaError(
                f"dimension {name!r}: {len(cards)} cardinalities but "
                f"{len(counts)} chunk counts"
            )
        parent_maps: list[np.ndarray | None] = [None]
        for l in range(1, len(cards)):
            if cards[l] % cards[l - 1]:
                raise SchemaError(
                    f"dimension {name!r}: cardinality {cards[l]} at level {l} "
                    f"is not a multiple of {cards[l - 1]} at level {l - 1}"
                )
            fanout = cards[l] // cards[l - 1]
            parent_maps.append(np.arange(cards[l], dtype=np.int64) // fanout)
        boundaries = []
        for l, (card, count) in enumerate(zip(cards, counts)):
            if count <= 0 or card % count:
                raise SchemaError(
                    f"dimension {name!r}: level {l} cardinality {card} is not "
                    f"divisible by chunk count {count}"
                )
            width = card // count
            boundaries.append(list(range(0, card + 1, width)))
        return cls(name, cards, parent_maps, boundaries, level_names)

    @classmethod
    def flat(cls, name: str, cardinality: int, num_chunks: int = 1) -> "Dimension":
        """A single-level hierarchy: ALL plus one base level."""
        return cls.uniform(name, [1, cardinality], [1, num_chunks])

    # ------------------------------------------------------------------ #
    # validation

    def _validate_parent_maps(
        self, parent_maps: Sequence[np.ndarray | Sequence[int] | None]
    ) -> list[np.ndarray | None]:
        if len(parent_maps) != len(self.cardinalities):
            raise SchemaError(
                f"dimension {self.name!r}: {len(parent_maps)} parent maps for "
                f"{len(self.cardinalities)} levels"
            )
        validated: list[np.ndarray | None] = [None]
        for l in range(1, len(self.cardinalities)):
            raw = parent_maps[l]
            if raw is None:
                raise SchemaError(
                    f"dimension {self.name!r}: missing parent map for level {l}"
                )
            arr = np.asarray(raw, dtype=np.int64)
            card, coarser = self.cardinalities[l], self.cardinalities[l - 1]
            if arr.shape != (card,):
                raise SchemaError(
                    f"dimension {self.name!r}: parent map for level {l} has "
                    f"shape {arr.shape}, expected ({card},)"
                )
            if card and (arr[0] != 0 or arr[-1] != coarser - 1):
                raise SchemaError(
                    f"dimension {self.name!r}: parent map for level {l} must "
                    f"be surjective onto 0..{coarser - 1}"
                )
            diffs = np.diff(arr)
            if np.any(diffs < 0) or np.any(diffs > 1):
                raise SchemaError(
                    f"dimension {self.name!r}: parent map for level {l} must "
                    "be monotone with steps of 0 or 1 (contiguous hierarchy)"
                )
            validated.append(arr)
        return validated

    def _validate_boundaries(
        self, chunk_boundaries: Sequence[Sequence[int]]
    ) -> list[np.ndarray]:
        if len(chunk_boundaries) != len(self.cardinalities):
            raise SchemaError(
                f"dimension {self.name!r}: {len(chunk_boundaries)} boundary "
                f"lists for {len(self.cardinalities)} levels"
            )
        validated = []
        for l, raw in enumerate(chunk_boundaries):
            arr = np.asarray(raw, dtype=np.int64)
            card = self.cardinalities[l]
            if arr.ndim != 1 or arr.size < 2 or arr[0] != 0 or arr[-1] != card:
                raise SchemaError(
                    f"dimension {self.name!r}: level {l} chunk boundaries must "
                    f"run 0..{card}, got {arr.tolist()}"
                )
            if np.any(np.diff(arr) <= 0):
                raise SchemaError(
                    f"dimension {self.name!r}: level {l} chunk boundaries must "
                    f"be strictly increasing, got {arr.tolist()}"
                )
            validated.append(arr)
        return validated

    def _validate_closure(self) -> None:
        """Check that coarse chunk boundaries land on fine chunk boundaries."""
        for l in range(1, len(self.cardinalities)):
            coarse = self._boundaries[l - 1]
            fine = self._boundaries[l]
            parent = self._parent_maps[l]
            # First fine ordinal whose parent ordinal is >= b, for each
            # coarse boundary b: must be a fine chunk boundary.
            firsts = np.searchsorted(parent, coarse, side="left")
            missing = np.isin(firsts, fine, invert=True)
            if np.any(missing):
                bad = coarse[missing][0]
                raise ChunkAlignmentError(
                    f"dimension {self.name!r}: chunk boundary {bad} at level "
                    f"{l - 1} does not align with a chunk boundary at level {l}"
                )

    # ------------------------------------------------------------------ #
    # derived lookup tables

    def _build_coarse_maps(self) -> list[dict[int, np.ndarray]]:
        """``_to_coarse[l][m]`` maps level-``l`` ordinals to level-``m < l``."""
        maps: list[dict[int, np.ndarray]] = [dict() for _ in self.cardinalities]
        for l in range(1, len(self.cardinalities)):
            maps[l][l - 1] = self._parent_maps[l]
            for m in range(l - 2, -1, -1):
                # Compose one hop at a time: level l -> m+1 -> m.
                maps[l][m] = maps[m + 1][m][maps[l][m + 1]]
        return maps

    def _build_first_fine_maps(self) -> list[dict[int, np.ndarray]]:
        """``_first_fine[m][l]``: first level-``l`` ordinal per level-``m``
        value, length ``cardinalities[m] + 1`` (sentinel at the end)."""
        maps: list[dict[int, np.ndarray]] = [dict() for _ in self.cardinalities]
        for m in range(len(self.cardinalities) - 1):
            for l in range(m + 1, len(self.cardinalities)):
                to_m = self._to_coarse[l][m]
                firsts = np.searchsorted(
                    to_m, np.arange(self.cardinalities[m] + 1), side="left"
                )
                maps[m][l] = firsts
        return maps

    # ------------------------------------------------------------------ #
    # public API

    @property
    def height(self) -> int:
        """Hierarchy size ``h``: the index of the base (most detailed) level."""
        return len(self.cardinalities) - 1

    def cardinality(self, level: int) -> int:
        return self.cardinalities[level]

    def num_chunks(self, level: int) -> int:
        return len(self._boundaries[level]) - 1

    def chunk_boundaries(self, level: int) -> np.ndarray:
        """The boundary array of ``level`` (read-only view)."""
        return self._boundaries[level]

    def chunk_of_value(self, level: int, ordinal: int) -> int:
        """The chunk index containing ``ordinal`` at ``level``."""
        bounds = self._boundaries[level]
        if not 0 <= ordinal < self.cardinalities[level]:
            raise SchemaError(
                f"dimension {self.name!r}: ordinal {ordinal} out of range at "
                f"level {level}"
            )
        return int(np.searchsorted(bounds, ordinal, side="right") - 1)

    def chunk_range(self, level: int, chunk: int) -> tuple[int, int]:
        """Half-open ordinal range ``[lo, hi)`` covered by ``chunk``."""
        bounds = self._boundaries[level]
        if not 0 <= chunk < len(bounds) - 1:
            raise SchemaError(
                f"dimension {self.name!r}: chunk {chunk} out of range at "
                f"level {level}"
            )
        return int(bounds[chunk]), int(bounds[chunk + 1])

    def map_ordinals(
        self, fine_level: int, coarse_level: int, ordinals: np.ndarray
    ) -> np.ndarray:
        """Vectorised ancestor lookup from ``fine_level`` to ``coarse_level``.

        One :class:`LevelMapTable` probe plus one fancy-index — no
        per-call arithmetic (the batched roll-up kernel's hot path).
        """
        table = self.level_map.lookup(fine_level, coarse_level)
        if table is None:
            return ordinals
        return table[ordinals]

    def fine_value_span(
        self, coarse_level: int, ordinal_lo: int, ordinal_hi: int, fine_level: int
    ) -> tuple[int, int]:
        """Map a coarse ordinal range ``[lo, hi)`` to the fine ordinal range."""
        if fine_level == coarse_level:
            return ordinal_lo, ordinal_hi
        firsts = self._first_fine[coarse_level][fine_level]
        return int(firsts[ordinal_lo]), int(firsts[ordinal_hi])

    def first_fine_ordinals(self, coarse_level: int, fine_level: int) -> np.ndarray:
        """First ``fine_level`` ordinal of every ``coarse_level`` value.

        Length ``cardinality(coarse_level) + 1`` (the last entry is the
        fine cardinality).  Strictly increasing because every parent map
        is monotone, contiguous and surjective, so ``firsts[:-1]`` are
        valid ``reduceat`` boundaries with no empty group.
        """
        if not coarse_level < fine_level <= self.height:
            raise SchemaError(
                f"dimension {self.name!r}: need coarse level {coarse_level} "
                f"< fine level {fine_level} <= {self.height}"
            )
        return self._first_fine[coarse_level][fine_level]

    def child_chunk_span(
        self, coarse_level: int, chunk: int, fine_level: int
    ) -> tuple[int, int]:
        """Chunks at ``fine_level`` covering ``chunk`` at ``coarse_level``.

        Returns a half-open chunk-index range ``[first, last)``.  Guaranteed
        exact (no partial chunks) by the closure property.
        """
        if fine_level < coarse_level:
            raise SchemaError(
                f"dimension {self.name!r}: fine level {fine_level} must be at "
                f"least as detailed as coarse level {coarse_level}"
            )
        lo, hi = self.chunk_range(coarse_level, chunk)
        fine_lo, fine_hi = self.fine_value_span(coarse_level, lo, hi, fine_level)
        bounds = self._boundaries[fine_level]
        first = int(np.searchsorted(bounds, fine_lo, side="left"))
        last = int(np.searchsorted(bounds, fine_hi, side="left"))
        if bounds[first] != fine_lo or bounds[last] != fine_hi:
            raise ChunkAlignmentError(
                f"dimension {self.name!r}: chunk {chunk} at level "
                f"{coarse_level} is not chunk-aligned at level {fine_level}"
            )
        return first, last

    def parent_chunk_of(
        self, fine_level: int, chunk: int, coarse_level: int
    ) -> int:
        """The chunk at ``coarse_level`` containing ``chunk`` of ``fine_level``."""
        if coarse_level > fine_level:
            raise SchemaError(
                f"dimension {self.name!r}: coarse level {coarse_level} must be "
                f"at most as detailed as fine level {fine_level}"
            )
        lo, _ = self.chunk_range(fine_level, chunk)
        coarse_ordinal = int(
            self.map_ordinals(fine_level, coarse_level, np.asarray([lo]))[0]
        )
        return self.chunk_of_value(coarse_level, coarse_ordinal)

    def __repr__(self) -> str:
        return (
            f"Dimension({self.name!r}, height={self.height}, "
            f"cardinalities={self.cardinalities})"
        )
