"""The norms' factor path against the norms that build every weight per call.

Every X, Y and Z norm builds its data-independent factors (weights, lo
entries, column weights) once per key and keeps them read-only in the
byte-bounded cache of ``grid._Factors``; ``random_field`` takes its envelope
from the same cache.  Each is checked at zero tolerance against the
per-call arithmetic kept in ``oracles``, on a first call that builds the
factors and a second that reads them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnlab import grid as grid_module
from rnlab import norms as norms_module
from rnlab.grid import FrequencyGrid, SpaceTimeField, dyadic_blocks, project_dyadic, random_field
from rnlab.norms import NormParams, energy_l2l1, norms_over_s, xsb_norm, ysb_norm, zsb_norm

import oracles
from test_properties import GRIDS, NORM_PARAMS, PROPERTY, SPLITS, fields, tau_supports

S_VALUES = st.lists(st.floats(-0.9, 0.5), min_size=1, max_size=4)

# the cache's entry limit, and 0, which sends every norm down the uncached
# path (X in _X_BLOCK columns)
ENTRY_LIMITS = st.sampled_from((grid_module._CACHED_ENTRIES, 0))


@st.composite
def stored_fields(draw, grid):
    """A field on drawn columns, zero off drawn per-column spans, stored on its
    whole window or on a drawn block of it (samples off the block dropped)."""
    u = draw(tau_supports(draw(fields(grid))))
    if draw(st.booleans()):
        a, b = sorted(draw(st.lists(st.integers(0, grid.n_tau), min_size=2, max_size=2)))
        u = SpaceTimeField.from_columns(grid, u.index, u.data[:, a:b], lo=a)
    return u


def _norms(u, p, s_values):
    return [xsb_norm(u, p), ysb_norm(u, p), zsb_norm(u, p), energy_l2l1(u, p.s),
            *norms_over_s(u, p.b, s_values, "X"), *norms_over_s(u, p.b, s_values, "Z")]


def _oracle_norms(u, p, s_values):
    return [oracles.xsb_uncached(u, p), oracles.ysb_uncached(u, p),
            oracles.zsb_uncached(u, p), oracles.energy_uncached(u, p.s),
            *oracles.norms_over_s_uncached(u, p.b, s_values, "X"),
            *oracles.norms_over_s_uncached(u, p.b, s_values, "Z")]


def _arrays(value):
    """The arrays of an array or of a nested tuple of them."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for v in value for a in _arrays(v)]


def cached_arrays():
    return [a for value in grid_module._weights.values() for a in _arrays(value)]


def _charge(value):
    return sum(a.nbytes for a in _arrays(value)) + grid_module._ENTRY_BYTES


def _assert_within_budget():
    charged = sum(_charge(value) for value in grid_module._weights.values())
    assert grid_module._weights_bytes == charged <= grid_module._CACHE_BYTES
    assert all(a.size <= grid_module._CACHED_ENTRIES for a in cached_arrays())


class _Traffic(dict):
    """A weight cache that counts the keys built into it and its emptyings."""

    builds = clears = 0

    def __setitem__(self, key, value):
        self.builds += 1
        super().__setitem__(key, value)

    def clear(self):
        self.clears += 1
        super().clear()


@pytest.fixture
def traffic(monkeypatch):
    """An empty, counting weight cache in place of the module's for one test."""
    cache = _Traffic()
    monkeypatch.setattr(grid_module, "_weights", cache)
    monkeypatch.setattr(grid_module, "_weights_bytes", 0)
    return cache


CHECK_GRID = FrequencyGrid.for_box(2, 4, 0.25)  # the grid of the check battery


class TestFactorPath:
    @PROPERTY
    @given(st.sampled_from(GRIDS).flatmap(stored_fields), NORM_PARAMS, S_VALUES, SPLITS,
           ENTRY_LIMITS)
    def test_norms_equal_the_uncached_arithmetic(self, u, p, s_values, split, limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module, "MOD_THRESHOLD", split)
            mp.setattr(grid_module, "_CACHED_ENTRIES", limit)
            want = _oracle_norms(u, p, s_values)
            first = _norms(u, p, s_values)
            keys = list(grid_module._weights)
            second = _norms(u, p, s_values)  # every factor from the cache
            assert set(grid_module._weights) == set(keys)
        assert first == want
        assert second == want

    def test_the_split_is_part_of_the_key(self):
        # the same field and (s, b) under each split, and back: no split
        # reads the lo entries of another
        u = random_field(GRIDS[1], np.random.default_rng(7), envelope_power=-1.0)
        p = NormParams(s=-0.6)
        for split in (2.0**-10, 2.0**-3, 0.5, 2.0**-10):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(grid_module, "MOD_THRESHOLD", split)
                for _ in range(2):
                    assert zsb_norm(u, p) == oracles.zsb_uncached(u, p)
                    assert norms_over_s(u, p.b, [-0.6, 0.1], "Z") == \
                        oracles.norms_over_s_uncached(u, p.b, [-0.6, 0.1], "Z")

    def test_cached_arrays_are_read_only(self):
        u = random_field(GRIDS[1], np.random.default_rng(8), envelope_power=-1.0)
        p = NormParams(s=-0.6)
        _norms(u, p, [-0.6])
        arrays = cached_arrays()
        assert arrays
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_cache_stays_within_its_budget(self):
        # 40 distinct column sets on the check grid hold about 18 MB of
        # weights; the cache empties each time the next entry would overflow
        grid = FrequencyGrid.for_box(2, 4, 0.25)
        rng = np.random.default_rng(9)
        p = NormParams(s=-0.6)
        for _ in range(40):
            keys = np.sort(rng.choice(grid.box_count, size=60, replace=False))
            u = random_field(grid, rng, columns=grid.box_index[keys], envelope_power=-1.0)
            xsb_norm(u, p), ysb_norm(u, p), zsb_norm(u, p)
            _assert_within_budget()
        # a field over the entry limit is normed without entering the cache
        big = random_field(FrequencyGrid.for_box(2, 8, 0.25), rng)
        assert big.data.size > grid_module._CACHED_ENTRIES
        keys = set(grid_module._weights)
        assert _norms(big, p, [-0.6]) == _oracle_norms(big, p, [-0.6])
        assert set(grid_module._weights) == keys

    def test_an_entry_that_would_overflow_empties_the_cache(self, traffic, monkeypatch):
        # three X weights on 40, 41 and 42 columns; the budget holds the first
        # two, so the third empties the cache and is then held alone
        rng = np.random.default_rng(10)
        fields = [random_field(CHECK_GRID, rng, columns=CHECK_GRID.box_index[:k])
                  for k in (40, 41, 42)]
        charges = [u.data.size * 8 + grid_module._ENTRY_BYTES for u in fields]
        monkeypatch.setattr(grid_module, "_CACHE_BYTES", charges[0] + charges[1])
        p = NormParams(s=-0.6)
        for u in fields[:2]:
            xsb_norm(u, p)
        assert grid_module._weights_bytes == charges[0] + charges[1]
        assert (traffic.builds, traffic.clears, len(traffic)) == (2, 0, 2)
        assert xsb_norm(fields[2], p) == oracles.xsb_uncached(fields[2], p)
        assert (traffic.builds, traffic.clears, len(traffic)) == (3, 1, 1)
        assert grid_module._weights_bytes == charges[2]
        (key,) = traffic
        assert key[3] == fields[2].index.tobytes()

    def test_the_envelope_key_has_the_norms_key_shape(self, traffic):
        # (builder, params, grid, column bytes, stored block, split) for both
        u = random_field(CHECK_GRID, np.random.default_rng(11), envelope_power=-1.0)
        (envelope,) = traffic
        p = NormParams(s=-0.6)
        xsb_norm(u, p)
        (weight,) = set(traffic) - {envelope}
        tail = (CHECK_GRID, u.index.tobytes(), (0, CHECK_GRID.n_tau), grid_module.MOD_THRESHOLD)
        assert envelope == (grid_module._envelope, (-1.0,), *tail)
        assert weight == (norms_module._x_weight, (p.b,), *tail)

    def test_the_battery_key_mix_fits_the_cache(self, traffic):
        # the check battery's norms: enveloped random fields on the check grid
        # and their dyadic projections, through X, Y and Z; the second pass
        # draws new fields on the same columns and builds nothing
        rng = np.random.default_rng(12)
        p = NormParams(s=-0.6)
        for sweep in range(2):
            for _ in range(3):
                u = random_field(CHECK_GRID, rng, envelope_power=-1.0)
                for v in [u] + [project_dyadic(u, blk) for blk in dyadic_blocks(CHECK_GRID)]:
                    xsb_norm(v, p), ysb_norm(v, p), zsb_norm(v, p)
            if sweep == 0:
                built = traffic.builds
        assert built == len(traffic) > 0
        assert traffic.builds == built
        assert traffic.clears == 0
        _assert_within_budget()


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.dimension}")
@pytest.mark.parametrize("power", [0.0, -1.0, -0.5])
@pytest.mark.parametrize("subset", [False, True], ids=["box", "columns"])
def test_random_field_bitwise(grid, power, subset):
    # columns out of order, so the field sorts them; the second draw reads
    # the cached envelope; the generator is left in the same state
    columns = grid.box_index[::-3] if subset else None
    for seed in (1, 1, 2):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_field(grid, rng, columns=columns, envelope_power=power)
        want = oracles.random_field_uncached(grid, ref, columns=columns, envelope_power=power)
        assert np.array_equal(got.index, want.index)
        assert np.array_equal(got.data, want.data)
        assert rng.standard_normal() == ref.standard_normal()
