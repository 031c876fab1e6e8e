"""Storage layer: page table, disk cost model, LRU prefetch cache."""

import copy

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    DiskModel,
    FaultPlan,
    FaultyDiskModel,
    PageTable,
    PrefetchCache,
    StorageSpec,
    TieredStore,
)
from repro.storage.disk import POSITIONING_S, STRIPE_WAYS, TRANSFER_S_PER_PAGE
from repro.util import csr_expand

#: One page's read: its striped positioning plus its transfer.
PAGE_STEP = POSITIONING_S / STRIPE_WAYS + TRANSFER_S_PER_PAGE


class TestPageTable:
    def table(self):
        return PageTable([np.array([0, 1, 2]), np.array([3, 4]), np.array([5])])

    def test_sizes(self):
        table = self.table()
        assert table.n_pages == 3
        assert table.page_size(0) == 3 and table.page_size(2) == 1

    def test_lookups_both_directions(self):
        table = self.table()
        assert table.page_ids_of_objects([4])[0] == 1
        assert list(table.objects_of_page(1)) == [3, 4]

    def test_page_ids_of_objects_preserves_order(self):
        table = self.table()
        assert list(table.page_ids_of_objects([5, 0, 3])) == [2, 0, 1]

    def test_empty_lookup(self):
        assert len(self.table().page_ids_of_objects([])) == 0

    def test_gather_of_no_pages_or_empty_runs_is_empty(self):
        for gathered in (self.table().objects_of_pages([]), csr_expand([3, 5], [0, 0])):
            assert gathered.dtype == np.int64 and len(gathered) == 0

    def test_rejects_duplicate_assignment(self):
        with pytest.raises(ValueError):
            PageTable([np.array([0, 1]), np.array([1, 2])])

    def test_rejects_a_page_that_is_not_1d(self):
        with pytest.raises(ValueError, match="1D array"):
            PageTable([np.zeros((2, 2))])

    def test_out_of_range_page_raises(self):
        with pytest.raises(IndexError, match="page 3 out of range"):
            self.table().objects_of_page(3)

    def test_unassigned_object_raises(self):
        table = PageTable([np.array([0, 2])])
        with pytest.raises(KeyError):
            table.page_ids_of_objects([1])


class TestDiskModel:
    def test_empty_read_is_free(self):
        disk = DiskModel()
        assert disk.read_pages([]) == 0.0

    def test_each_page_pays_positioning_by_default(self):
        disk = DiskModel()
        t1 = disk.read_pages([0])
        t3 = DiskModel().read_pages([10, 11, 12])
        assert t3 == pytest.approx(3 * t1)

    def test_contiguous_run_pays_striped_positioning_per_page(self):
        for n in (1, 4, 9):
            disk = DiskModel()
            disk.read_pages([0])
            # Page 1 follows the one just read; a head would have made it cheap.
            expected = pytest.approx(n * PAGE_STEP, rel=1e-12)
            assert disk.read_pages(range(1, 1 + n)) == expected
            assert DiskModel().cost_if_cold(range(1, 1 + n)) == expected

    def test_trim_does_not_depend_on_what_was_read_before(self):
        pages = list(range(10, 30))
        fresh = DiskModel().trim_to_budget(pages, 0.01)
        assert 0 < len(fresh) < len(pages)
        for earlier in ([9], [29], [10, 11, 12], list(range(100))):
            disk = DiskModel()
            disk.read_pages(earlier)
            assert disk.trim_to_budget(pages, 0.01) == fresh

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

        given = batch()
        got = _canonical(given)
        assert got == sorted(set(int(p) for p in batch()))
        assert all(type(p) is int for p in got)
        # A list already canonical, what each layer hands the next, passes as is.
        assert (got is given) == (type(given) is list and given == got)
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
        pages = [4, 9, 17]
        assert DiskModel().cost_if_cold(pages) == pytest.approx(DiskModel().read_pages(pages))

    def test_striping_divides_positioning(self):
        # Exact, in the model's own grouping: positioning is summed, then
        # divided across the stripe ways.
        expected = 3 * POSITIONING_S / STRIPE_WAYS + 3 * TRANSFER_S_PER_PAGE
        assert DiskModel().read_pages([1, 5, 9]) == expected
        assert DiskModel().cost_if_cold([1, 5, 9]) == expected

    def test_stats_accumulate(self):
        disk = DiskModel()
        disk.read_pages([1, 2])
        disk.read_pages([7])
        assert disk.stats.pages_read == 3
        assert disk.stats.seconds_busy > 0


_SPIKY = FaultPlan(latency_rate=0.5, corrupt_rate=0.3, seed=3)
_TIERS = StorageSpec(tier_pages=8, miss_path="combined")

#: The three disk classes, with their fault and tier planes active.
_STACKS = {
    "bare": lambda: DiskModel(),
    "faulty": lambda: FaultyDiskModel(plan=_SPIKY),
    "tiered": lambda: TieredStore(DiskModel(), _TIERS),
    "tiered_faulty": lambda: TieredStore(FaultyDiskModel(plan=_SPIKY), _TIERS),
}

#: Read sequences run before a planning call: none, one page, the run
#: the planned batch continues, a long sweep, a scatter.
_HISTORIES = ([], [0], [9], list(range(60)), [5, 17, 33, 41])


def io_stats(disk):
    """The I/O counters of the ``DiskModel`` at the bottom of a stack."""
    return disk.stats if type(disk) is DiskModel else io_stats(disk._inner)


class TestDiskStack:
    """Laws every disk class keeps now that no model holds a head position."""

    @pytest.fixture(params=list(_STACKS))
    def make_disk(self, request):
        return _STACKS[request.param]

    @staticmethod
    def after(make_disk, history):
        disk = make_disk()
        if history:
            disk.read_pages(history)
        return disk

    def test_cold_cost_is_striped_positioning_per_page(self, make_disk):
        for history in _HISTORIES:
            disk = self.after(make_disk, history)
            for n in (1, 4, 9):
                cost = disk.cost_if_cold(range(10, 10 + n))
                assert cost == pytest.approx(n * PAGE_STEP, rel=1e-12)

    def test_trim_is_the_same_prefix_whatever_was_read_before(self, make_disk):
        pages = list(range(10, 30))
        fresh = make_disk().trim_to_budget(pages, 0.01)
        assert 0 < len(fresh) < len(pages)
        for history in _HISTORIES:
            assert self.after(make_disk, history).trim_to_budget(pages, 0.01) == fresh

    def test_trim_overshoots_the_budget_by_at_most_one_page(self, make_disk):
        disk = self.after(make_disk, [11, 12])
        pages = [12, 40, 11, 7, 40, 25]
        ordered = sorted(set(pages))
        assert disk.trim_to_budget([], 1.0) == []
        assert disk.trim_to_budget(pages, 0.0) == ordered[:1]
        for k in range(len(ordered) + 2):
            kept = disk.trim_to_budget(pages, (k + 0.5) * PAGE_STEP)
            assert kept == ordered[: k + 1]

    def test_planning_charges_nothing_and_perturbs_no_read(self, make_disk):
        plain, planned = make_disk(), make_disk()
        for batch in ([3, 4, 5], [4, 5, 6, 20], [3], list(range(30)), [6, 7]):
            before = copy.deepcopy(io_stats(planned))
            planned.cost_if_cold(batch)
            planned.trim_to_budget(batch, 0.004)
            assert io_stats(planned) == before
            assert planned.read_pages(batch) == plain.read_pages(batch)
            assert io_stats(planned) == io_stats(plain)
            assert getattr(planned, "tier_stats", None) == getattr(plain, "tier_stats", None)

    def test_batch_order_and_duplicates_do_not_change_a_read(self, make_disk):
        tidy, messy = make_disk(), make_disk()
        for batch in ([8, 2, 5, 2], [5, 6, 7, 7, 6], [30, 1], [2, 2, 2]):
            assert messy.read_pages(batch) == tidy.read_pages(sorted(set(batch)))
            assert io_stats(messy) == io_stats(tidy)
            assert getattr(messy, "tier_stats", None) == getattr(tidy, "tier_stats", None)

    @pytest.mark.parametrize("stack", ["faulty", "tiered_faulty"])
    def test_recover_read_is_a_clean_full_cost_read(self, stack):
        """Only a faulty disk raises a read failure, so only it recovers one."""
        for history in _HISTORIES:
            disk = self.after(_STACKS[stack], history)
            read_before = io_stats(disk).pages_read
            # 10 follows the page [9] left under a head; the long sweep
            # leaves 59 in the tier.  Both are re-read all the same.
            cost = disk.recover_read([10, 11, 59, 60])
            assert cost == pytest.approx(4 * PAGE_STEP, rel=1e-12)
            assert io_stats(disk).pages_read == read_before + 4
            assert disk.recover_read([]) == 0.0


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
        assert cache.contains_many([1, 2, 3]) == [True, False, True]
        assert cache.evicted_many([1, 2, 3]) == [False, True, False]
        assert cache.evictions == 1

    def test_capacity_never_exceeded(self):
        cache = PrefetchCache(3)
        for page in range(10):
            cache.insert(page)
            assert len(cache) <= 3

    def test_zero_capacity_accepts_nothing(self):
        cache = PrefetchCache(0)
        cache.insert(1)
        assert len(cache) == 0 and cache.missing_many([1]) == [1]

    def test_reinsert_refreshes_without_growth(self):
        cache = PrefetchCache(4)
        cache.insert(1)
        cache.insert(1)
        assert len(cache) == 1

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
