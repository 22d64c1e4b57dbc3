"""The one counted LRU (`repro.core.cache.LRUMemo`)."""

from repro.core.cache import LRUMemo


def test_counts_hits_misses_and_evictions_across_the_api():
    memo = LRUMemo(maxsize=2)
    assert memo.get("a") is None                      # miss
    memo.put("a", 1)
    assert memo.get("a") == 1                         # hit
    assert memo.get_or_compute("b", lambda: 2) == 2   # miss, then put
    assert memo.get_or_compute("b", lambda: 1 / 0) == 2   # hit
    memo.put("c", 3)                                  # evicts "a"
    assert memo.snapshot() == {"hits": 2, "misses": 2, "evictions": 1,
                               "size": 2}
    assert (memo.hits, memo.misses, memo.evictions) == (2, 2, 1)


def test_least_recently_used_entry_is_evicted_first():
    memo = LRUMemo(maxsize=2)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.get("a") == 1     # "b" is now the least recently used
    memo.put("c", 3)
    assert memo.get("b") is None
    assert (memo.get("a"), memo.get("c")) == (1, 3)
    memo.put("a", 10)             # a re-put refreshes recency, no eviction
    memo.put("d", 4)
    assert memo.get("c") is None
    assert memo.get("a") == 10
    assert memo.evictions == 2


def test_zero_maxsize_stores_nothing():
    memo = LRUMemo(maxsize=0)
    memo.put("a", 1)
    assert len(memo) == 0
    assert memo.get("a") is None
    calls = []
    for _ in range(2):
        memo.get_or_compute("b", lambda: calls.append(1) or 2)
    assert len(calls) == 2        # computed every time
    assert memo.snapshot() == {"hits": 0, "misses": 3, "evictions": 0,
                               "size": 0}


def test_clear_drops_entries_and_keeps_counters():
    memo = LRUMemo(maxsize=1)
    memo.put("a", 1)
    memo.get("a")
    memo.put("b", 2)
    memo.clear()
    assert len(memo) == 0
    assert memo.get("b") is None
    assert memo.snapshot() == {"hits": 1, "misses": 1, "evictions": 1,
                               "size": 0}

