"""The norms' factor path against the norms that build every weight per call.

Every X, Y and Z norm builds its data-independent factors (weights, lo
entries, column weights) once per key and keeps them read-only in the
byte-bounded cache of ``grid.cached_weights``; ``random_field`` takes its
envelope from the same cache.  Each is checked at zero tolerance against the
per-call arithmetic kept in ``oracles``, on a first call that builds the
factors and a second that reads them.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnlab import grid as grid_module
from rnlab.grid import FrequencyGrid, SpaceTimeField, random_field
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
    whole window or on its nonzero span alone."""
    u = draw(tau_supports(draw(fields(grid))))
    if draw(st.booleans()):
        a, b = u.tau_span()
        u = SpaceTimeField(u.grid, u.index.copy(), u.on(a, b).copy(), a)
    return u


def _norms(u, p, s_values):
    return [xsb_norm(u, p), ysb_norm(u, p), zsb_norm(u, p), energy_l2l1(u, p.s),
            *norms_over_s(u, p.b, s_values, "X"), *norms_over_s(u, p.b, s_values, "Z")]


def _oracle_norms(u, p, s_values):
    return [oracles.xsb_uncached(u, p), oracles.ysb_uncached(u, p),
            oracles.zsb_uncached(u, p), oracles.energy_uncached(u, p.s),
            *oracles.norms_over_s_uncached(u, p.b, s_values, "X"),
            *oracles.norms_over_s_uncached(u, p.b, s_values, "Z")]


def _cached_arrays():
    return [a for value, _ in grid_module._weights.values() for a in grid_module._arrays(value)]


def _assert_within_budget():
    charged = sum(charge for _, charge in grid_module._weights.values())
    assert grid_module._weights_bytes == charged <= grid_module._CACHE_BYTES
    assert all(a.size <= grid_module._CACHED_ENTRIES for a in _cached_arrays())


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
        arrays = _cached_arrays()
        assert arrays
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_cache_stays_within_its_budget(self):
        # 40 distinct column sets on the check grid hold about 18 MB of
        # weights; the least recently used are dropped
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
