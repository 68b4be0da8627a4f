"""The flat table's slot discipline, checked against a plain-Python model.

:class:`repro.core.flat_table.FlatTable` keeps ``capacity`` dense slots:
``insert`` takes the most recently freed slot, or else the next slot never
used, ``remove`` frees one, and ``replace`` hands one key's slot to
another.  The batch calls resolve keys through a key-to-slot index that
any scalar change leaves stale.  Each test drives the table and
:class:`Model` through the same seeded operations and compares slots,
split points, columns and the free stack.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.flat_table import FlatTable, admit_batch, plan_batch

SEEDS = [0, 1, 2]


class Model:
    """Which slot each key holds, and which slots come next, in plain
    Python."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.slot_of: dict[int, int] = {}
        self.free: list[int] = []
        self.unused = 0

    def insert(self, key: int) -> int:
        if self.free:
            slot = self.free.pop()
        elif self.unused < self.capacity:
            slot = self.unused
            self.unused += 1
        else:
            raise RuntimeError("full")
        self.slot_of[key] = slot
        return slot

    def remove(self, key: int) -> None:
        self.free.append(self.slot_of.pop(key))

    def split(self, keys: list[int]) -> int:
        """The first packet of the (free+1)-th distinct new key, or the
        chunk's length."""
        room = self.capacity - len(self.slot_of)
        new: set[int] = set()
        for i, key in enumerate(keys):
            if key not in self.slot_of and key not in new:
                if len(new) == room:
                    return i
                new.add(key)
        return len(keys)


def _pair(capacity: int) -> tuple[FlatTable, Model]:
    return FlatTable(capacity, {"a": np.float64, "b": np.int64}), Model(capacity)


def _churn(table: FlatTable, model: Model, rng: np.random.Generator,
           steps: int, universe: int) -> None:
    """Seeded scalar inserts and removes, mirrored on the model; each
    insert must land in the model's slot."""
    for _ in range(steps):
        if model.slot_of and (len(model.slot_of) == model.capacity
                              or rng.random() < 0.4):
            key = int(rng.choice(list(model.slot_of)))
            table.remove(key)
            model.remove(key)
        else:
            key = int(rng.integers(0, universe))
            while key in model.slot_of:
                key = int(rng.integers(0, universe))
            assert table.insert(key) == model.insert(key)


def _assert_matches(table: FlatTable, model: Model) -> None:
    assert list(table.slot_of.items()) == list(model.slot_of.items())
    assert table._free == model.free
    assert table._unused == model.unused
    live = np.zeros(model.capacity, dtype=bool)
    live[list(model.slot_of.values())] = True
    np.testing.assert_array_equal(table.live_mask, live)
    for key, slot in model.slot_of.items():
        assert int(table.key_col[slot]) == key


@pytest.mark.parametrize("seed", SEEDS)
def test_a_removed_slot_is_handed_out_next(seed):
    rng = np.random.default_rng(seed)
    table, model = _pair(16)
    _churn(table, model, rng, 200, 64)
    _assert_matches(table, model)
    # The most recently freed slot comes back first, then the others in
    # reverse order of freeing, then slots never used.
    for key in list(model.slot_of)[:5]:
        table.remove(key)
        model.remove(key)
    freed = model.free[::-1]
    for i, slot in enumerate(freed):
        assert table.insert(1000 + i) == slot == model.insert(1000 + i)
    _assert_matches(table, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_lookup_batch_follows_scalar_changes(seed):
    rng = np.random.default_rng(seed)
    table, model = _pair(32)
    probe = rng.integers(0, 96, 500).astype(np.uint64)
    for _ in range(6):
        # A batch call builds the index; the scalar run that follows
        # leaves it stale, and the next batch call must not trust it.
        np.testing.assert_array_equal(
            table.lookup_batch(probe),
            [model.slot_of.get(key, -1) for key in probe.tolist()],
        )
        _churn(table, model, rng, 40, 96)
        assert table._index is None
    _assert_matches(table, model)


def _chunk(rng: np.random.Generator, case: str, model: Model) -> np.ndarray:
    tracked = list(model.slot_of)
    n = 300
    if case == "duplicates":
        pool = tracked[:4] + [500, 501, 502]
        return np.asarray(rng.choice(pool, n), dtype=np.uint64)
    new = [1000 + i for i in range(3 * model.capacity)]
    if case == "more-new-than-free":
        pool = tracked + new
    elif case == "no-free":
        pool = tracked + new[:8]
    elif case == "empty-table":
        pool = new[: model.capacity + 5]
    else:
        raise ValueError(case)
    return np.asarray(rng.choice(pool, n), dtype=np.uint64)


@pytest.mark.parametrize(
    "case", ["duplicates", "more-new-than-free", "no-free", "empty-table"]
)
@pytest.mark.parametrize("seed", SEEDS)
def test_admit_batch_claims_the_free_slots_up_to_the_split(seed, case):
    rng = np.random.default_rng(seed)
    capacity = 24
    table, model = _pair(capacity)
    if case != "empty-table":
        _churn(table, model, rng, 120, 48)
        while case == "no-free" and len(model.slot_of) < capacity:
            key = max(model.slot_of, default=0) + 1
            assert table.insert(key) == model.insert(key)
    if case == "duplicates":
        # Four tracked keys and three new ones, which fit the free slots.
        while len(model.slot_of) > capacity - 3:
            key = next(iter(model.slot_of))
            table.remove(key)
            model.remove(key)
        while len(model.slot_of) < 4:
            key = max(model.slot_of, default=0) + 1
            assert table.insert(key) == model.insert(key)
    for col in table.cols.values():
        col[:] = 7  # freed slots keep stale values until claimed
    keys = _chunk(rng, case, model)
    before = dict(model.slot_of)
    split = model.split(keys.tolist())
    assert (split < len(keys)) == (case != "duplicates")

    slots, got_split = admit_batch(table, keys)

    assert got_split == split
    assert slots.shape == (split,)
    new = list(dict.fromkeys(k for k in keys[:split].tolist()
                             if k not in before))
    expected = {model.insert(key) for key in new}
    claimed = {}
    for key, slot in zip(keys[:split].tolist(), slots.tolist()):
        if key in before:
            assert slot == before[key]
        else:
            assert claimed.setdefault(key, slot) == slot
    assert set(claimed.values()) == expected and len(claimed) == len(new)
    assert {k: table.slot_of[k] for k in before} == before
    assert {k: table.slot_of[k] for k in new} == claimed
    assert table._free == model.free and table._unused == model.unused
    for col in table.cols.values():
        assert (col[list(expected)] == 0).all()
        assert (col[list(before.values())] == 7).all()
    np.testing.assert_array_equal(
        table.lookup_batch(keys),
        [table.slot_of.get(key, -1) for key in keys.tolist()],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_a_refused_claim_leaves_the_table_untouched(seed):
    rng = np.random.default_rng(seed)
    table, model = _pair(24)
    _churn(table, model, rng, 120, 48)
    free = 24 - len(model.slot_of)
    keys = rng.integers(1000, 1000 + 4 * 24, 400).astype(np.uint64)
    assert len(set(keys.tolist())) > free
    table.lookup_batch(keys)  # builds the index
    index = [part.copy() for part in table._index]
    columns = {name: col.copy() for name, col in table.cols.items()}
    key_col, state = table.key_col.copy(), table.state.copy()

    assert table.upsert_batch(keys, free) is None

    _assert_matches(table, model)
    for part, kept in zip(table._index, index):
        assert part.tobytes() == kept.tobytes()
    for name, col in table.cols.items():
        assert col.tobytes() == columns[name].tobytes()
    assert table.key_col.tobytes() == key_col.tobytes()
    assert table.state.tobytes() == state.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_clear_resets_the_free_stack(seed):
    rng = np.random.default_rng(seed)
    table, model = _pair(16)
    _churn(table, model, rng, 100, 40)
    assert table._free or table._unused
    table.lookup_batch(np.arange(40, dtype=np.uint64))
    table.clear()
    assert len(table) == 0 and table._index is None
    _assert_matches(table, Model(16))
    for col in table.cols.values():
        assert not col.any()
    assert [table.insert(key) for key in (5, 6, 7)] == [0, 1, 2]


def test_insert_at_capacity_raises():
    table, model = _pair(3)
    for key in (10, 11, 12):
        assert table.insert(key) == model.insert(key)
    with pytest.raises(RuntimeError, match="capacity"):
        table.insert(13)
    _assert_matches(table, model)
    table.remove(11)
    assert table.insert(13) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_replace_leaves_what_remove_then_insert_leaves(seed):
    rng = np.random.default_rng(seed)
    table, model = _pair(24)
    _churn(table, model, rng, 150, 48)
    while len(model.free) < 3:
        key = next(iter(model.slot_of))
        table.remove(key)
        model.remove(key)
    twin = copy.deepcopy(table)
    for new in range(1000, 1010):
        old = int(rng.choice(list(model.slot_of)))
        table.lookup_batch(np.array([old, new], dtype=np.uint64))
        twin.lookup_batch(np.array([old, new], dtype=np.uint64))
        assert table._index is not None

        slot = table.replace(old, new)

        twin.remove(old)
        assert twin.insert(new) == slot == model.slot_of[old]
        model.remove(old)
        model.insert(new)
        assert list(table.slot_of.items()) == list(twin.slot_of.items())
        assert table.key_col.tobytes() == twin.key_col.tobytes()
        assert table.state.tobytes() == twin.state.tobytes()
        assert table._free == twin._free and table._unused == twin._unused
        assert table._index is None and twin._index is None
        _assert_matches(table, model)


def test_replace_of_an_untracked_key_raises_as_remove_does():
    table, model = _pair(4)
    for key in (10, 11, 12):
        assert table.insert(key) == model.insert(key)
    table.remove(11)
    model.remove(11)
    for call in (lambda: table.remove(11), lambda: table.replace(11, 13)):
        with pytest.raises(KeyError):
            call()
        _assert_matches(table, model)
    assert 13 not in table


@pytest.mark.parametrize("case", ["all-hits", "first-misses", "later-misses"])
@pytest.mark.parametrize("seed", SEEDS)
def test_admit_batch_on_a_full_table_splits_at_the_first_miss(seed, case):
    """A full table claims nothing: the prefix is the hits before the
    first miss, the same ``(slots, split)`` that a refused claim, the
    planned split and a second claim give."""
    rng = np.random.default_rng(seed)
    table, model = _pair(24)
    _churn(table, model, rng, 120, 48)
    while len(model.slot_of) < 24:
        key = max(model.slot_of, default=0) + 1
        assert table.insert(key) == model.insert(key)
    keys = rng.choice(list(model.slot_of), 300).astype(np.uint64)
    first_miss = {"all-hits": 300, "first-misses": 0, "later-misses": 150}
    split = first_miss[case]
    keys[split::70] = 5000 + np.arange(keys[split::70].size)
    twin = copy.deepcopy(table)
    expected = twin.upsert_batch(keys, 0)
    if expected is None:
        expected = twin.upsert_batch(keys[:plan_batch(twin, keys)], 0)

    slots, got_split = admit_batch(table, keys)

    assert got_split == split == expected.size
    np.testing.assert_array_equal(slots, expected)
    np.testing.assert_array_equal(
        slots, [model.slot_of[key] for key in keys[:split].tolist()])
    _assert_matches(table, model)
    for part, kept in zip(table._index, twin._index):
        assert part.tobytes() == kept.tobytes()
