"""Exact size calibration against a per-level ``np.unique`` oracle.

``SizeEstimator.exact`` counts every group-by's occupied cells either in
one lattice sweep over a dense occupancy cube or, when that cube would
outgrow the fact table's coordinate columns, one level at a time.  Both
paths must give fills ``==`` to the oracle's on every level, because the
fills price VCMC's plans: any drift would change plans and costs.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregateCache, BackendDatabase, generate_fact_table
from repro.backend.generator import FactTable
from repro.core import sizes as sizes_module
from repro.core.sizes import SizeEstimator
from repro.schema import (
    CubeSchema,
    Dimension,
    apb_reduced_schema,
    apb_schema,
    apb_small_schema,
    apb_tiny_schema,
)

SCHEMAS = {"tiny": apb_tiny_schema(), "reduced": apb_reduced_schema()}


def oracle_fills(schema, facts):
    """Every level's fill from its own ``np.unique`` over the fact
    coordinates mapped to it; the base level's from the tuple count."""
    fills = {}
    for level in schema.all_levels():
        cells = max(schema.num_cells(level), 1)
        if level == schema.base_level:
            fills[level] = facts.num_tuples / cells
            continue
        coords = [
            dim.map_ordinals(dim.height, coarse, facts.coords[d])
            for d, (dim, coarse) in enumerate(zip(schema.dimensions, level))
        ]
        flat = np.ravel_multi_index(coords, schema.chunks.cell_shape(level))
        fills[level] = len(np.unique(flat)) / cells
    return fills


def exact_fills(schema, facts, monkeypatch, dense):
    """``SizeEstimator.exact``'s fills with the path forced."""
    with monkeypatch.context() as patch:
        patch.setattr(sizes_module, "_dense_fits", lambda *_: dense)
        return SizeEstimator.exact(schema, facts)._fill


def assert_both_paths_match(schema, facts, monkeypatch):
    expected = oracle_fills(schema, facts)
    for dense in (True, False):
        fills = exact_fills(schema, facts, monkeypatch, dense)
        assert list(fills) == list(expected)
        assert fills == expected, f"dense={dense}"


def fact_table(schema, coords):
    coords = tuple(np.asarray(c, dtype=np.int64) for c in coords)
    n = len(coords[0])
    return FactTable(
        schema=schema,
        coords=coords,
        values=np.ones(n),
        counts=np.ones(n, dtype=np.int64),
        extras=tuple(np.ones(n) for _ in range(schema.num_extra_measures)),
    )


@st.composite
def ragged_dimensions(draw, name):
    """A dimension with uneven fan-outs: unequal ``reduceat`` groups."""
    height = draw(st.integers(1, 3))
    cards = [1]
    for _ in range(height):
        cards.append(cards[-1] + draw(st.integers(0, 4)))
    parent_maps = [None]
    for coarse, fine in zip(cards, cards[1:]):
        cuts = sorted(draw(st.sets(
            st.integers(1, fine - 1), min_size=coarse - 1, max_size=coarse - 1
        ))) if coarse > 1 else []
        parent_maps.append(np.searchsorted(cuts, np.arange(fine), side="right"))
    return Dimension(
        name, cards, parent_maps, [[0, c] for c in cards]
    )


@st.composite
def ragged_schemas(draw):
    return CubeSchema(
        [draw(ragged_dimensions(name)) for name in ("A", "B", "C")]
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(SCHEMAS)),
    mode=st.sampled_from(["uniform", "clustered"]),
    num_tuples=st.integers(1, 400),
    density=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**16),
)
def test_exact_matches_oracle(name, mode, num_tuples, density, seed):
    schema = SCHEMAS[name]
    facts = generate_fact_table(
        schema, num_tuples=num_tuples, seed=seed, mode=mode,
        combo_density=density, cell_fill=density,
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_both_paths_match(schema, facts, monkeypatch)


@settings(max_examples=40, deadline=None)
@given(schema=ragged_schemas(), num_tuples=st.integers(1, 60),
       seed=st.integers(0, 2**16))
def test_exact_matches_oracle_on_ragged_hierarchies(schema, num_tuples, seed):
    facts = generate_fact_table(schema, num_tuples=num_tuples, seed=seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_both_paths_match(schema, facts, monkeypatch)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_empty_table_has_zero_fills(name, monkeypatch):
    schema = SCHEMAS[name]
    facts = fact_table(schema, [[] for _ in schema.dimensions])
    for dense in (True, False):
        fills = exact_fills(schema, facts, monkeypatch, dense)
        assert fills == {level: 0.0 for level in schema.all_levels()}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_one_row_table_fills_one_cell_per_level(name, monkeypatch):
    schema = SCHEMAS[name]
    top = [dim.cardinality(dim.height) - 1 for dim in schema.dimensions]
    facts = fact_table(schema, [[ordinal] for ordinal in top])
    for dense in (True, False):
        fills = exact_fills(schema, facts, monkeypatch, dense)
        assert fills == {
            level: 1 / schema.num_cells(level)
            for level in schema.all_levels()
        }


def test_apb_small_clustered_takes_the_dense_path():
    """The benchmark's table: 278,622 clustered rows on apb_small."""
    schema = apb_small_schema()
    facts = generate_fact_table(schema, num_tuples=20000, seed=1729,
                                mode="clustered")
    assert sizes_module._dense_fits(schema, facts)
    assert SizeEstimator.exact(schema, facts)._fill == oracle_fills(
        schema, facts
    )


def test_apb_schema_takes_the_fallback_path(monkeypatch):
    """4.1e9 base cells: a dense cube would dwarf 2,000 rows' columns."""
    schema = apb_schema()
    facts = generate_fact_table(schema, num_tuples=2000, seed=5)
    assert not sizes_module._dense_fits(schema, facts)

    def no_sweep(*_):
        raise AssertionError("the dense sweep must not run here")

    monkeypatch.setattr(sizes_module, "_distinct_by_sweep", no_sweep)
    assert SizeEstimator.exact(schema, facts)._fill == oracle_fills(
        schema, facts
    )


# ---------------------------------------------------------------------- #
# observe_append


@pytest.fixture
def append_world():
    schema = apb_reduced_schema()
    initial = generate_fact_table(schema, num_tuples=150, seed=1)
    batch = generate_fact_table(schema, num_tuples=40, seed=2)
    backend = BackendDatabase(schema, initial)
    return schema, initial, batch, backend


def test_observe_append_exact_base_fill_is_the_merged_total(append_world):
    schema, initial, batch, backend = append_world
    sizes = SizeEstimator.exact(schema, initial)
    backend.apply_append(batch)
    sizes.observe_append(batch, backend.num_tuples)
    base = schema.base_level
    assert sizes.total_base_tuples == backend.num_tuples
    assert sizes._fill[base] == backend.num_tuples / schema.num_cells(base)


def test_observe_append_exact_unions_the_batch_fill(append_world):
    schema, initial, batch, backend = append_world
    sizes = SizeEstimator.exact(schema, initial)
    before = dict(sizes._fill)
    batch_fills = oracle_fills(schema, batch)
    backend.apply_append(batch)
    sizes.observe_append(batch, backend.num_tuples)
    for level, old in before.items():
        if level == schema.base_level:
            continue
        f_b = batch_fills[level]
        assert sizes._fill[level] == old + f_b - old * f_b


def test_observe_append_analytic_clears_fills(append_world):
    schema, initial, batch, backend = append_world
    sizes = SizeEstimator(schema, initial.num_tuples)
    for level in schema.all_levels():
        sizes.level_fill(level)
    backend.apply_append(batch)
    sizes.observe_append(batch, backend.num_tuples)
    assert sizes._fill == {}
    fresh = SizeEstimator(schema, backend.num_tuples)
    for level in schema.all_levels():
        assert sizes.level_fill(level) == fresh.level_fill(level)


@pytest.mark.parametrize("exact", [True, False])
def test_refresh_from_backend_recalibrates_like_observe_append(
    append_world, exact
):
    schema, initial, batch, backend = append_world
    sizes = (SizeEstimator.exact(schema, initial) if exact
             else SizeEstimator(schema, initial.num_tuples))
    expected = copy.deepcopy(sizes)
    manager = AggregateCache(schema, backend, capacity_bytes=1 << 20,
                             sizes=sizes)
    manager.refresh_from_backend(batch)
    expected.observe_append(batch, backend.num_tuples)
    assert manager.sizes is sizes
    assert sizes.total_base_tuples == expected.total_base_tuples
    if exact:
        assert sizes._fill == expected._fill
    else:
        # Cleared, then refilled lazily from the merged total when the
        # cost store recalibrates: no fill from the old total survives.
        fresh = SizeEstimator(schema, backend.num_tuples)
        assert sizes._fill == {
            level: fresh.level_fill(level) for level in sizes._fill
        }
