"""Storage layer: page table, disk cost model, LRU prefetch cache."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage import DiskModel, DiskParameters, PageTable, PrefetchCache


class TestPageTable:
    def table(self):
        return PageTable([np.array([0, 1, 2]), np.array([3, 4]), np.array([5])])

    def test_sizes(self):
        table = self.table()
        assert table.n_pages == 3
        assert table.n_objects == 6
        assert table.page_size(0) == 3 and table.page_size(2) == 1

    def test_lookups_both_directions(self):
        table = self.table()
        assert table.page_of_object(4) == 1
        assert list(table.objects_of_page(1)) == [3, 4]

    def test_pages_of_objects_deduplicates(self):
        table = self.table()
        assert list(table.pages_of_objects([0, 1, 5])) == [0, 2]

    def test_page_ids_of_objects_preserves_order(self):
        table = self.table()
        assert list(table.page_ids_of_objects([5, 0, 3])) == [2, 0, 1]

    def test_empty_lookup(self):
        assert len(self.table().pages_of_objects([])) == 0

    def test_rejects_duplicate_assignment(self):
        with pytest.raises(ValueError):
            PageTable([np.array([0, 1]), np.array([1, 2])])

    def test_unassigned_object_raises(self):
        table = PageTable([np.array([0, 2])])
        with pytest.raises(KeyError):
            table.page_of_object(1)


class TestDiskModel:
    def test_empty_read_is_free(self):
        disk = DiskModel()
        assert disk.read_pages([]) == 0.0

    def test_each_page_pays_positioning_by_default(self):
        params = DiskParameters()
        disk = DiskModel(params)
        t1 = disk.read_pages([0])
        t3 = DiskModel(params).read_pages([10, 11, 12])
        assert t3 == pytest.approx(3 * t1)

    def test_sequential_discount_mode(self):
        params = DiskParameters(sequential_discount=True)
        contiguous = DiskModel(params).read_pages([5, 6, 7, 8])
        scattered = DiskModel(params).read_pages([5, 100, 200, 300])
        assert contiguous < scattered

    def test_sequential_discount_carries_head_position(self):
        disk = DiskModel(DiskParameters(sequential_discount=True))
        disk.read_pages([9])
        follow = disk.read_pages([10])
        assert follow == pytest.approx(disk.params.transfer_s_per_page)

    def test_duplicates_read_once(self):
        disk = DiskModel()
        t = disk.read_pages([3, 3, 3])
        assert disk.stats.pages_read == 1
        assert t == pytest.approx(DiskModel().read_pages([3]))

    @given(
        pages=st.lists(st.integers(0, 40), max_size=12),
        form=st.sampled_from(["list", "sorted", "generator", "int32", "int64", "tuple", "float"]),
    )
    def test_canonical_batch_is_the_sorted_set_of_ints(self, pages, form):
        """The disk stack's one canonicaliser equals the expression it replaced."""
        from repro.storage.disk import _canonical

        if form == "sorted":
            pages = sorted(set(pages))

        def batch():
            if form == "generator":
                return (p for p in pages)
            if form in ("int32", "int64", "float"):
                return np.array(pages, dtype={"float": np.float64}.get(form, form))
            return tuple(pages) if form == "tuple" else list(pages)

        got = _canonical(batch())
        assert got == sorted(set(int(p) for p in batch()))
        assert all(type(p) is int for p in got)
        # The layers below read the same batch the same way.
        assert DiskModel().read_pages(batch()) == DiskModel().read_pages(got)
        assert DiskModel().trim_to_budget(batch(), 0.01) == DiskModel().trim_to_budget(got, 0.01)
        assert DiskModel().cost_if_cold(batch()) == DiskModel().cost_if_cold(got)

    def test_canonical_batch_does_not_trust_bools_or_numpy_scalars(self):
        from repro.storage.disk import _canonical

        for batch in ([True, 2], [np.int64(1), np.int64(3)], [1, 1], [2, 1]):
            got = _canonical(batch)
            assert got == sorted(set(int(p) for p in batch))
            assert all(type(p) is int for p in got)

    def test_cost_if_cold_does_not_charge(self):
        disk = DiskModel()
        cost = disk.cost_if_cold([1, 2, 3])
        assert cost > 0
        assert disk.stats.pages_read == 0

    def test_cost_if_cold_matches_actual_cold_read(self):
        params = DiskParameters()
        pages = [4, 9, 17]
        assert DiskModel(params).cost_if_cold(pages) == pytest.approx(
            DiskModel(params).read_pages(pages)
        )

    def test_striping_divides_positioning(self):
        slow = DiskModel(DiskParameters(stripe_ways=1)).read_pages([1, 5, 9])
        fast = DiskModel(DiskParameters(stripe_ways=4)).read_pages([1, 5, 9])
        assert slow > fast

    def test_estimate_read_time_monotone(self):
        disk = DiskModel()
        assert disk.estimate_read_time(10) < disk.estimate_read_time(100)
        assert disk.estimate_read_time(0) == 0.0

    def test_estimate_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            DiskModel().estimate_read_time(5, contiguous_fraction=1.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiskParameters(seek_s=-1.0)
        with pytest.raises(ValueError):
            DiskParameters(transfer_mb_per_s=0.0)
        with pytest.raises(ValueError):
            DiskParameters(stripe_ways=0)

    def test_stats_accumulate(self):
        disk = DiskModel()
        disk.read_pages([1, 2])
        disk.read_pages([7])
        assert disk.stats.pages_read == 3
        assert disk.stats.seconds_busy > 0
        disk.reset_stats()
        assert disk.stats.pages_read == 0


class TestPrefetchCache:
    def test_miss_then_hit(self):
        cache = PrefetchCache(4)
        assert not cache.touch(1)
        cache.insert(1)
        assert cache.touch(1)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PrefetchCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.touch(1)  # 2 becomes least recently used
        cache.insert(3)
        assert 1 in cache and 3 in cache and 2 not in cache
        assert cache.evictions == 1

    def test_capacity_never_exceeded(self):
        cache = PrefetchCache(3)
        for page in range(10):
            cache.insert(page)
            assert len(cache) <= 3

    def test_zero_capacity_accepts_nothing(self):
        cache = PrefetchCache(0)
        cache.insert(1)
        assert len(cache) == 0 and 1 not in cache

    def test_reinsert_refreshes_without_growth(self):
        cache = PrefetchCache(4)
        cache.insert(1)
        cache.insert(1)
        assert len(cache) == 1

    def test_clear(self):
        cache = PrefetchCache(4)
        cache.insert_many([1, 2, 3])
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = PrefetchCache(4)
        cache.insert(1)
        cache.touch(1)
        cache.touch(2)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_without_accesses(self):
        assert PrefetchCache(4).hit_rate == 0.0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            PrefetchCache(-1)

    @given(st.lists(st.tuples(st.sampled_from(["insert", "touch"]), st.integers(0, 20))))
    def test_model_based_lru(self, operations):
        """The cache behaves exactly like an ordered-dict reference model."""
        capacity = 4
        cache = PrefetchCache(capacity)
        model: list[int] = []  # most recent last
        for op, page in operations:
            if op == "insert":
                cache.insert(page)
                if page in model:
                    model.remove(page)
                    model.append(page)
                else:
                    model.append(page)
                    if len(model) > capacity:
                        model.pop(0)
            else:
                hit = cache.touch(page)
                assert hit == (page in model)
                if hit:
                    model.remove(page)
                    model.append(page)
            assert set(cache.cached_pages()) == set(model)
            assert cache.cached_pages() == model
