"""The norms' weights, cached and built per call, against the per-call arithmetic.

Every weight of the X, Y and Z norms and ``random_field``'s envelope comes
from one of two sources, by the stored block's size: a block of at most
``grid._CACHED_ENTRIES`` entries builds each whole on its modulations, once
per key, and keeps it read-only in the byte-bounded cache of
``grid._Factors``; a larger block gathers its rows from the sigma-lattice
(``grid._weight_rows``) at each call.  The Z-norm's lo entries are found a
row block at a time (``norms._lo_rows``), cached for a small block.  Each is
checked against the per-call arithmetic kept in ``oracles``: at zero
tolerance on power-of-two steps, on a first call that builds the cached
factors and a second that reads them, and within 1e-13 relative at
tau_step 1/3 and 0.1, where the lattice's sigma rounds apart from
tau + |n|^2.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnlab import grid as grid_module
from rnlab import norms as norms_module
from rnlab.grid import (FrequencyGrid, SpaceTimeField, _envelope, _Factors, dyadic_blocks,
                        japanese_bracket, project_dyadic, random_field)
from rnlab.norms import (NormParams, _lo_rows, _x_weight, _y_weight, energy_l2l1, norms_over_s,
                         xsb_norm, ysb_norm, zsb_norm)

import oracles
from test_properties import GRIDS, NORM_PARAMS, PROPERTY, SPLITS, fields, tau_supports

S_VALUES = st.lists(st.floats(-0.9, 0.5), min_size=1, max_size=4)

# the cache's entry limit, and 0, which sends every block but an empty one
# to the sigma-lattice and its lo entries to norms._lo_rows
ENTRY_LIMITS = st.sampled_from((grid_module._CACHED_ENTRIES, 0))

# grids whose tau_step is not a power of two
NON_DYADIC = (FrequencyGrid.for_box(1, 6, 1.0 / 3.0), FrequencyGrid.for_box(2, 3, 0.1))


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


def _weights(u, p):
    """u's X and Y weights and its envelope <sigma>^-1 on the whole stored
    block, as the norms and ``random_field`` take them, and its lo entries
    found a row block at a time."""
    factors = _Factors(u)
    rows = [factors.weight(fn, *params)(slice(None))
            for fn, params in ((_x_weight, (p.b,)), (_y_weight, (p.s, p.b)), (_envelope, (-1.0,)))]
    (i, j), x = _lo_rows(u.grid, u.norm_sq_columns().astype(float), u.stored, p.b)
    return rows, [i, j, x]


def _oracle_weights(u, p):
    mod, nsq = u.mod_array(), u.norm_sq_columns().astype(float)
    (i, j), x, y, _ = oracles._z_factors(mod, nsq, p)
    return [(1.0 + mod * mod) ** p.b, y, japanese_bracket(mod) ** -1.0], [i, j, x]


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
            got, want_weights = _weights(u, p), _oracle_weights(u, p)
        assert first == want
        assert second == want
        for a, b in zip(got[0] + got[1], want_weights[0] + want_weights[1]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @PROPERTY
    @given(st.sampled_from(NON_DYADIC).flatmap(stored_fields), NORM_PARAMS, S_VALUES, SPLITS,
           ENTRY_LIMITS)
    def test_non_dyadic_steps_within_rounding(self, u, p, s_values, split, limit):
        # sigma rounds once on the lattice, twice as tau_j + |n|^2; the lo
        # entries take mod_array's float operations, so no split moves
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module, "MOD_THRESHOLD", split)
            mp.setattr(grid_module, "_CACHED_ENTRIES", limit)
            got, want = _norms(u, p, s_values), _oracle_norms(u, p, s_values)
            (rows, lo), (want_rows, want_lo) = _weights(u, p), _oracle_weights(u, p)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-13 * b
        for a, b in zip(rows, want_rows):
            assert a.shape == b.shape and np.all(np.abs(a - b) <= 1e-13 * b)
        for a, b in zip(lo, want_lo):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("limit", [grid_module._CACHED_ENTRIES, 0])
    def test_a_zero_width_block(self, limit, monkeypatch):
        # a block of no samples: every norm is 0, as the per-call arithmetic's
        grid = GRIDS[1]
        u = random_field(grid, np.random.default_rng(13), columns=grid.box_index[:5])
        u = SpaceTimeField.from_columns(grid, u.index, u.data[:, 7:7], lo=7)
        p = NormParams(s=-0.6)
        monkeypatch.setattr(grid_module, "_CACHED_ENTRIES", limit)
        assert _norms(u, p, [-0.6, 0.1]) == _oracle_norms(u, p, [-0.6, 0.1]) == [0.0] * 8

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


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"d{g.dimension}")
@pytest.mark.parametrize("power", [-1.0, -0.5])
def test_random_field_envelope_from_the_lattice(grid, power, monkeypatch):
    # every block gathers its envelope from the sigma-lattice, in row blocks
    # of a few rows
    monkeypatch.setattr(grid_module, "_CACHED_ENTRIES", 0)
    monkeypatch.setattr(grid_module, "_BLOCK_BYTES", 3 * 8 * grid.n_tau)
    test_random_field_bitwise(grid, power, True)
    test_random_field_bitwise(grid, power, False)


@pytest.mark.parametrize("nsq, stored, evaluations", [
    (np.arange(13) ** 2, (0, None), 1),  # a box's span is shorter than its block
    (np.array([0, 144]), (400, 409), 2),  # 585 lattice samples against 18 entries
], ids=["box", "far_apart"])
def test_weight_rows_on_the_lattice_or_per_call(nsq, stored, evaluations):
    # the rows of both sources match the weight on mod_array's modulations
    grid = FrequencyGrid.for_box(1, 12, 0.25)
    stored = (stored[0], stored[1] or grid.n_tau)
    calls = []
    rows = grid_module._weight_rows(
        grid, nsq, stored, lambda sigma: calls.append(sigma.shape) or _x_weight(sigma, 0.7))
    mod = grid.nodes_on(*stored)[None, :] + nsq[:, None].astype(float)
    for i in (slice(None), slice(0, 1)):
        assert rows(i).tobytes() == _x_weight(mod[i], 0.7).tobytes()
    assert len(calls) == evaluations
