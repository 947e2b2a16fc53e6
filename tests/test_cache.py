import numpy as np
import pytest

from multiperiod import DetectorConfig, TimeSeries, modwt, robust_period, spectral
from multiperiod.cache import TABLES, TableCache
from multiperiod.modwt import daubechies_filters, level_gains, max_level
from multiperiod.preprocess import _hp_plan


class TestTableCache:
    def test_least_recently_used_first_out(self):
        cache = TableCache(budget=240, recent=2)
        built = []

        @cache
        def ones(n):
            built.append(n)
            return np.ones(n)  # 8n bytes

        ten = ones(10)
        assert ones(10) is ten and built == [10]
        ones(20)
        ones(10)  # 20 is now the least recently used
        ones(5)  # 280 bytes: 20 goes
        assert built == [10, 20, 5] and cache.nbytes == 120
        assert ones(5) is ones(5) and ones(10) is ten  # 5, then 10
        ones(20)  # 280 bytes again: 5 goes
        assert built == [10, 20, 5, 20] and cache.nbytes == 240
        assert ones(10) is ten and built == [10, 20, 5, 20]

    def test_the_recent_stay_past_the_budget(self):
        cache = TableCache(budget=100, recent=2)
        built = []

        @cache
        def pair(n):
            built.append(n)
            return np.ones(n), np.ones(n)  # 16n bytes

        big = pair(10)  # 160 bytes, over the budget on its own
        assert pair(10) is big and cache.nbytes == 160
        pair(20)
        assert cache.nbytes == 160 + 320
        pair(1)  # the first goes, the last two stay
        assert cache.nbytes == 320 + 16
        pair(10)
        assert built == [10, 20, 1, 10] and cache.nbytes == 16 + 160

    def test_keys_are_typed(self):
        cache = TableCache(budget=1 << 10, recent=1)

        @cache
        def table(n):
            return np.full(2, n)

        assert table(1) is not table(True) and table(1.0) is not table(1)
        assert table(np.int64(1)) is table(np.int64(1))

    def test_every_array_it_returns_is_read_only(self):
        cache = TableCache(budget=1 << 10, recent=2)

        @cache
        def one(n):
            return np.ones(n)

        @cache
        def pair(n):
            return np.ones(n), np.zeros(n)

        for _ in range(2):  # built, then a hit
            arrays = (one(3), *pair(3))
            assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            one(3)[0] = 2.0


@pytest.fixture
def fresh_tables():
    TABLES.clear()
    yield
    TABLES.clear()


@pytest.mark.usefixtures("fresh_tables")
def test_tables_at_large_lengths_stay_within_the_bound():
    # Near N = 10 000 the level-gain tables of the padded series hold 1.6 MB
    # each, so a dozen lengths fill the budget; near N = 100 000 they hold
    # 21 MB and only the recent tables stay. Unbounded, these calls would
    # hold 0.2 GB.
    pair = daubechies_filters(4)
    sizes = []
    for n in [*range(10_000, 10_024, 2), 100_000, 100_002, 100_004]:
        j0 = max_level(n, pair.L1)
        assert level_gains(pair, 2 * n, j0) is level_gains(pair, 2 * n, j0)
        for build, args in ((level_gains, (pair, 2 * n, j0)), (spectral._table, (2 * n,)),
                            (_hp_plan, (n, 1e6)), (modwt.level_power, (pair, 2 * n, j0)),
                            (modwt._gain_planes, (pair, n, j0))):
            value = build(*args)
            sizes.append(sum(a.nbytes for a in (value if isinstance(value, tuple) else (value,))))
            assert TABLES.nbytes <= max(TABLES.budget, sum(sizes[-TABLES.recent :]))
    assert sum(sizes) > 8 * TABLES.budget


@pytest.mark.usefixtures("fresh_tables")
@pytest.mark.parametrize("robust", [False, True])
def test_a_detection_past_the_budget_keeps_every_table_it_reads(robust):
    # At N = 100 003 one detection's tables hold more than the budget. Every
    # table the second detection reads is the one the first built: none is
    # dropped and rebuilt in between. A robust detection reads the most
    # tables, one more than a plain one: the fit's harmonic table.
    n = 100_003
    rng = np.random.default_rng(0)
    x = np.sin(2 * np.pi * np.arange(n) / 50) + 0.3 * rng.normal(size=n)
    cfg = DetectorConfig(robust_mode=robust)
    first = robust_period(TimeSeries(x), cfg)
    assert first.periods and TABLES.nbytes > TABLES.budget
    built = dict(TABLES._entries)
    names = {key[0].__name__ for key in built}
    tables = {"_hp_plan", "_gain_planes", "level_power"}
    assert names == (tables | {"_table"} if robust else tables)
    assert len(built) == (TABLES.recent if robust else TABLES.recent - 1)
    read = []
    entries = TABLES._entries

    class Recorded(type(entries)):
        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

    TABLES._entries = live = Recorded(entries)
    try:
        assert robust_period(TimeSeries(x), cfg) == first
    finally:
        TABLES._entries = entries
    assert {key[0].__name__ for key in read} == names
    assert live.keys() == built.keys()
    assert all(live[key][0] is built[key][0] for key in read)


@pytest.mark.usefixtures("fresh_tables")
def test_the_g_test_caches_nothing():
    # each term's log C(m, k) comes from lgamma, so no m and no spectrum
    # length leaves a table behind
    rng = np.random.default_rng(7)
    for m in rng.integers(2, 3001, size=300).tolist():
        spectral.fisher_pvalue(float(rng.uniform(1 / m, 1)), m)
    power = rng.exponential(size=1235)
    for level in range(1, 8):
        spectral.fisher_test(power, level, alpha=0.01)
    assert not TABLES._entries and TABLES.nbytes == 0
