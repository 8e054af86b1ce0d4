"""Persistent xi-table store: roundtrips, corruption recovery, layering,
and multi-process contention over one shared shard tree."""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro.core import divide_conquer, search_cost, xi_store
from repro.core.xi_store import XiTableStore, use_xi_store


@pytest.fixture()
def store(tmp_path) -> XiTableStore:
    return XiTableStore(tmp_path / "xi")


SAMPLE = tuple(range(2**4 + 1))  # shape (2, 4): t = 16, len = 17


class TestRoundtrip:
    def test_store_then_load(self, store):
        store.store("cost", 2, 4, 1, SAMPLE)
        assert store.load("cost", 2, 4, 1) == SAMPLE
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_missing_entry_is_a_miss(self, store):
        assert store.load("cost", 2, 4, 1) is None
        assert store.stats.misses == 1

    def test_kinds_and_parameters_do_not_collide(self, store):
        store.store("cost", 2, 4, 1, SAMPLE)
        assert store.load("dc", 2, 4, 1) is None
        assert store.load("cost", 2, 4, 2) is None
        assert store.load("cost", 4, 2, 1) is None

    def test_entries_are_sharded_by_digest(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        assert path.parent.parent == store.directory
        assert path.parent.name == path.name[:2]

    def test_clear_removes_everything(self, store):
        store.store("cost", 2, 4, 1, SAMPLE)
        store.store("dc", 2, 4, 1, SAMPLE)
        assert store.clear() == 2
        assert store.load("cost", 2, 4, 1) is None


class TestCorruptionRecovery:
    def test_truncated_pickle_is_evicted(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        path.write_bytes(path.read_bytes()[:10])
        assert store.load("cost", 2, 4, 1) is None
        assert store.stats.evictions == 1
        assert not path.exists()

    def test_garbage_bytes_are_evicted(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        path.write_bytes(b"not a pickle at all")
        assert store.load("cost", 2, 4, 1) is None
        assert not path.exists()

    def test_wrong_payload_shape_is_evicted(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        path.write_bytes(pickle.dumps(["not", "a", "dict"]))
        assert store.load("cost", 2, 4, 1) is None
        assert not path.exists()

    def test_wrong_table_length_is_evicted(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        payload = pickle.loads(path.read_bytes())
        payload["costs"] = payload["costs"][:-1]
        path.write_bytes(pickle.dumps(payload))
        assert store.load("cost", 2, 4, 1) is None

    def test_non_integer_costs_are_evicted(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        payload = pickle.loads(path.read_bytes())
        payload["costs"] = tuple(float(c) for c in payload["costs"])
        path.write_bytes(pickle.dumps(payload))
        assert store.load("cost", 2, 4, 1) is None

    def test_stale_code_salt_is_evicted(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        payload = pickle.loads(path.read_bytes())
        kind, m, n, empty_cost, _salt = payload["key"]
        payload["key"] = (kind, m, n, empty_cost, "0" * 16)
        path.write_bytes(pickle.dumps(payload))
        assert store.load("cost", 2, 4, 1) is None
        assert not path.exists()

    def test_recovery_recomputes_and_rewrites(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        path.write_bytes(b"junk")
        assert store.load("cost", 2, 4, 1) is None
        store.store("cost", 2, 4, 1, SAMPLE)
        assert store.load("cost", 2, 4, 1) == SAMPLE


class TestConcurrentWrites:
    def test_last_writer_wins_and_entry_stays_readable(self, store):
        store.store("cost", 2, 4, 1, SAMPLE)
        store.store("cost", 2, 4, 1, SAMPLE)
        assert store.load("cost", 2, 4, 1) == SAMPLE
        assert store.stats.writes == 2

    def test_stray_tmp_files_do_not_confuse_loads(self, store):
        path = store.store("cost", 2, 4, 1, SAMPLE)
        # A crashed writer's leftover: same directory, tmp suffix.
        (path.parent / f"{path.name}deadbeef.tmp").write_bytes(b"partial")
        assert store.load("cost", 2, 4, 1) == SAMPLE
        assert store.clear() == 1  # only the real .pkl entry is counted


class TestAmbientStore:
    def test_use_xi_store_scopes_a_directory(self, tmp_path):
        with use_xi_store(tmp_path / "scoped"):
            active = xi_store.active_store()
            assert isinstance(active, XiTableStore)
            xi_store.store("cost", 2, 4, 1, SAMPLE)
            assert xi_store.load("cost", 2, 4, 1) == SAMPLE

    def test_use_xi_store_none_disables_persistence(self):
        with use_xi_store(None):
            assert xi_store.active_store() is None
            xi_store.store("cost", 2, 4, 1, SAMPLE)  # must be a no-op
            assert xi_store.load("cost", 2, 4, 1) is None

    @pytest.mark.parametrize("value", ["", "0", "off", "none", " OFF "])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv(xi_store.ENV_VAR, value)
        assert xi_store._store_from_env() is None

    def test_env_selects_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv(xi_store.ENV_VAR, str(tmp_path / "from-env"))
        resolved = xi_store._store_from_env()
        assert isinstance(resolved, XiTableStore)
        assert resolved.directory == tmp_path / "from-env"

    def test_env_unset_uses_default_directory(self, monkeypatch):
        monkeypatch.delenv(xi_store.ENV_VAR, raising=False)
        resolved = xi_store._store_from_env()
        assert str(resolved.directory) == xi_store.DEFAULT_DIRECTORY

    def test_code_salt_is_stable_and_short(self):
        assert xi_store.core_code_salt() == xi_store.core_code_salt()
        assert len(xi_store.core_code_salt()) == 16

    def test_stats_summary_mentions_counts(self, store):
        store.store("cost", 2, 4, 1, SAMPLE)
        store.load("cost", 2, 4, 1)
        assert "1 hits" in store.stats.summary()
        assert "1 writes" in store.stats.summary()


class TestCacheTierLayering:
    """The DP/dc lru_caches sit above the store; big shapes persist."""

    def test_cost_table_persists_and_reloads(self, tmp_path):
        store = XiTableStore(tmp_path / "tier")
        with use_xi_store(store):
            search_cost._cost_tuple.cache_clear()
            expected = search_cost._cost_tuple(2, 8)  # 256 leaves: persisted
            assert store.stats.writes == 1
            # A "new process": in-memory cache gone, disk warm.
            search_cost._cost_tuple.cache_clear()
            assert search_cost._cost_tuple(2, 8) == expected
            assert store.stats.hits == 1
        search_cost._cost_tuple.cache_clear()

    def test_small_cost_tables_are_not_persisted(self, tmp_path):
        store = XiTableStore(tmp_path / "tier")
        with use_xi_store(store):
            search_cost._cost_tuple.cache_clear()
            search_cost._cost_tuple(2, 4)  # 16 leaves: below the threshold
            assert store.stats.writes == 0
            assert store.stats.misses == 0  # not even probed
        search_cost._cost_tuple.cache_clear()

    def test_dc_table_persists_and_reloads(self, tmp_path):
        store = XiTableStore(tmp_path / "tier")
        with use_xi_store(store):
            divide_conquer._dc_tuple.cache_clear()
            expected = divide_conquer._dc_tuple(2, 12)  # 4096 leaves
            writes = store.stats.writes
            assert writes >= 1
            divide_conquer._dc_tuple.cache_clear()
            assert divide_conquer._dc_tuple(2, 12) == expected
            assert store.stats.hits >= 1
        divide_conquer._dc_tuple.cache_clear()

    def test_corrupt_entry_recomputes_correct_table(self, tmp_path):
        store = XiTableStore(tmp_path / "tier")
        with use_xi_store(store):
            search_cost._cost_tuple.cache_clear()
            expected = search_cost._cost_tuple(2, 8)
            path = store.path_for("cost", 2, 8, 1)
            path.write_bytes(b"corrupted")
            search_cost._cost_tuple.cache_clear()
            assert search_cost._cost_tuple(2, 8) == expected
            assert store.stats.evictions == 1
        search_cost._cost_tuple.cache_clear()

    def test_lru_is_bounded(self):
        assert search_cost._cost_tuple.cache_info().maxsize is not None
        assert divide_conquer._dc_tuple.cache_info().maxsize is not None

    def test_disabled_store_still_computes(self):
        with use_xi_store(None):
            search_cost._cost_tuple.cache_clear()
            table = search_cost._cost_tuple(4, 5)
            assert table[2] == 19
        search_cost._cost_tuple.cache_clear()


def test_default_directory_is_under_repro_cache():
    assert xi_store.DEFAULT_DIRECTORY == os.path.join(".repro-cache", "xi")


# -- multi-process contention ------------------------------------------------
#
# Worker functions live at module level so they pickle across the
# process boundary.  The fork start method keeps the workers cheap and is
# always available on the platforms CI runs on (linux).

def _hammer_writer(directory: str, rounds: int, table: tuple,
                   stored) -> None:
    store = XiTableStore(directory)
    store.store("cost", 2, 8, 1, table)
    stored.set()
    for _ in range(rounds - 1):
        store.store("cost", 2, 8, 1, table)


def _hammer_reader(directory: str, rounds: int, expected: tuple,
                   queue, stored) -> None:
    store = XiTableStore(directory)
    seen = corrupt = 0
    # 200 loads of a missing entry take milliseconds: start once the
    # first write has landed, so the loads overlap the later ones.
    stored.wait(timeout=30)
    for _ in range(rounds):
        value = store.load("cost", 2, 8, 1)
        if value is not None:
            seen += 1
            if value != expected:
                corrupt += 1
    queue.put((seen, corrupt, store.stats.evictions))


def _compute_through_store(directory: str, queue) -> None:
    search_cost._cost_tuple.cache_clear()
    with use_xi_store(XiTableStore(directory)):
        table = search_cost._cost_tuple(2, 9)
    queue.put(table)


class TestMultiProcessContention:
    """Writers and readers race over one shard tree; the atomic
    mkstemp+rename write protocol must never let a reader observe a
    corrupt or partial table."""

    def test_concurrent_writers_and_readers_never_see_corruption(
        self, tmp_path
    ):
        directory = str(tmp_path / "shared-xi")
        with use_xi_store(None):
            search_cost._cost_tuple.cache_clear()
            table = search_cost._cost_tuple(2, 8)
        search_cost._cost_tuple.cache_clear()
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        stored = context.Event()
        rounds = 200
        writers = [
            context.Process(
                target=_hammer_writer,
                args=(directory, rounds, table, stored),
            )
            for _ in range(2)
        ]
        readers = [
            context.Process(
                target=_hammer_reader,
                args=(directory, rounds, table, queue, stored),
            )
            for _ in range(2)
        ]
        for process in writers + readers:
            process.start()
        for process in writers + readers:
            process.join(timeout=60)
            assert process.exitcode == 0
        total_seen = 0
        for _ in readers:
            seen, corrupt, evictions = queue.get(timeout=10)
            total_seen += seen
            assert corrupt == 0, "a reader served a wrong table"
            assert evictions == 0, "a reader evicted a mid-write entry"
        # Readers start after the first write landed and overlap the
        # rest; at least some loads must have hit.
        assert total_seen > 0
        # The surviving entry is intact.
        assert XiTableStore(directory).load("cost", 2, 8, 1) == table

    def test_two_processes_compute_the_same_table_through_one_store(
        self, tmp_path
    ):
        """Both processes race the (2, 9) DP through the same empty
        store: whoever wins the write, both must return the true table
        and the store must end with a loadable, correct entry."""
        directory = str(tmp_path / "shared-xi")
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        processes = [
            context.Process(
                target=_compute_through_store, args=(directory, queue)
            )
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        first = queue.get(timeout=10)
        second = queue.get(timeout=10)
        assert first == second
        assert XiTableStore(directory).load("cost", 2, 9, 1) == first
