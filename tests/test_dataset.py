"""Loading, filtering, and chronological splitting of interaction logs."""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tide import dataset
from tide.dataset import (
    ChronoSplit,
    DataFormatError,
    DensePairSet,
    InteractionLog,
    chrono_split,
    load_interactions,
    load_split,
    n_core_filter,
    part_assignments,
    save_interactions,
    save_split,
)
from tide.evaluation import POSITIVE_RATING


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_load_compacts_ids_and_sorts_by_time(tmp_path):
    p = tmp_path / "log.tsv"
    write_lines(p, ["7\t30\t5\t300", "7\t10\t4\t100", "9\t30\t1\t200"])
    log = load_interactions(p)
    assert log.n_users == 2 and log.n_items == 2
    assert log.times.tolist() == [100, 200, 300]
    # numeric ids compact in ascending numeric order: 7->0, 9->1; 10->0, 30->1
    assert log.users.tolist() == [0, 1, 0]
    assert log.items.tolist() == [0, 1, 1]
    assert log.ratings.tolist() == [4.0, 1.0, 5.0]


def test_ids_that_parse_to_one_integer_compact_alike_under_every_hash_seed(tmp_path):
    # "07" and "7" are two users; their order must not come from set iteration,
    # which differs between processes with different hash seeds
    p = tmp_path / "log.tsv"
    write_lines(p, ["07\t1\t5\t100", "7\t1\t4\t200", "8\t2\t3\t300"])
    probe = "import sys; from tide.dataset import load_interactions; print(load_interactions(sys.argv[1]).users.tolist())"
    src = str(Path(dataset.__file__).parents[1])
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", probe, str(p)], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 1, 2]", seed


def test_load_empty_file_errors(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    with pytest.raises(DataFormatError, match="empty input"):
        load_interactions(p)


def test_load_missing_file_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_interactions(tmp_path / "absent.tsv")


def test_load_reports_bad_line_number(tmp_path):
    p = tmp_path / "bad.tsv"
    write_lines(p, ["1\t2\t3\t100", "1\t2\t3\toops"])
    with pytest.raises(DataFormatError, match="line 2"):
        load_interactions(p)


def test_load_rejects_out_of_range_rating(tmp_path):
    p = tmp_path / "bad.tsv"
    write_lines(p, ["1\t2\t9\t100"])
    with pytest.raises(DataFormatError, match="line 1"):
        load_interactions(p)


def test_load_accepts_half_star_ratings_and_names_the_range(tmp_path):
    p = tmp_path / "half.tsv"
    write_lines(p, ["1\t2\t0.5\t100", "1\t3\t4.5\t200"])
    assert load_interactions(p).ratings.tolist() == [0.5, 4.5]
    for bad in ("9", "0"):
        write_lines(p, [f"1\t2\t{bad}\t100"])
        with pytest.raises(DataFormatError, match=r"line 1: rating .* outside \[0\.5, 5\]"):
            load_interactions(p)


def test_parsed_ratings_compare_exactly_with_the_positive_rating(tmp_path):
    # "5", "5.0" and "4.5" parse to exactly representable floats, so == needs no tolerance
    p = tmp_path / "ratings.tsv"
    write_lines(p, ["1\t1\t5\t100", "1\t2\t5.0\t200", "1\t3\t4.5\t300"])
    assert (load_interactions(p).ratings == POSITIVE_RATING).tolist() == [True, True, False]


def test_save_load_roundtrip_with_missing_ratings(tmp_path):
    log = InteractionLog.build(
        users=[0, 1, 0],
        items=[2, 0, 1],
        times=[10, 20, 30],
        ratings=[4.0, np.nan, 2.0],
        n_users=2,
        n_items=3,
    )
    p = tmp_path / "log.tsv"
    save_interactions(log, p)
    back = load_interactions(p)
    assert back.users.tolist() == log.users.tolist()
    assert back.items.tolist() == log.items.tolist()
    assert back.times.tolist() == log.times.tolist()
    assert np.array_equal(np.isnan(back.ratings), np.isnan(log.ratings))
    mask = ~np.isnan(log.ratings)
    assert np.array_equal(back.ratings[mask], log.ratings[mask])


def test_saved_text_is_one_formatted_line_per_row_across_write_chunks(tmp_path, monkeypatch):
    # chunks of 3 rows, so rows 3 and 6 open a new write
    monkeypatch.setattr(dataset, "_WRITE_ROWS", 3)
    ratings = [4.0, np.nan, 2.5, 5.0, 1.0, np.nan, 3.0]
    log = InteractionLog.build(
        users=[0, 1, 0, 2, 1, 2, 0], items=[2, 0, 1, 1, 2, 0, 0], times=[10, 20, 30, 30, 40, 50, 60],
        ratings=ratings, n_users=3, n_items=3,
    )
    expected = "".join(
        f"{u}\t{i}\t{'nan' if np.isnan(r) else format(r, 'g')}\t{t}\n"
        for u, i, r, t in zip(log.users.tolist(), log.items.tolist(), log.ratings.tolist(), log.times.tolist())
    )
    save_interactions(log, tmp_path / "log.tsv")
    assert (tmp_path / "log.tsv").read_text() == expected
    save_interactions(log.subset(np.zeros(len(log), dtype=bool)), tmp_path / "empty.tsv")
    assert (tmp_path / "empty.tsv").read_bytes() == b""


def test_a_failed_save_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    # the second write of three fails: the file on disk is still the old log
    log = InteractionLog.build(
        users=[0, 1, 0, 2, 1, 2, 0], items=[2, 0, 1, 1, 2, 0, 0], times=[10, 20, 30, 30, 40, 50, 60],
        ratings=[4.0, 3.0, 2.5, 5.0, 1.0, 2.0, 3.0], n_users=3, n_items=3,
    )
    path = tmp_path / "interactions.tsv"
    save_interactions(log.subset(np.arange(len(log)) < 2), path)
    old = path.read_bytes()
    monkeypatch.setattr(dataset, "_WRITE_ROWS", 3)
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(dataset.os, "fdopen", lambda fd, *args, **kwargs: FullDisk(real_fdopen(fd, *args, **kwargs)))
    with pytest.raises(OSError, match="No space left"):
        save_interactions(log, path)
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["interactions.tsv"]

    # a write that completes replaces the file with exactly the rows
    monkeypatch.setattr(dataset.os, "fdopen", real_fdopen)
    save_interactions(log, path)
    assert load_interactions(path).times.tolist() == log.times.tolist()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["interactions.tsv"]


def reference_text(users, items, ratings, times) -> str:
    """The per-value formatter the encoder must match: ``str`` for the int columns, ``format(r, "g")`` for ratings."""
    return "".join(f"{u}\t{i}\t{format(r, 'g')}\t{t}\n" for u, i, r, t in zip(users, items, ratings, times))


# ids and times of every width, so a chunk mixes zero, short and 19-digit values
int64_values = st.one_of(st.integers(0, 9), st.integers(0, 2**32 + 9), st.integers(0, 2**63 - 1))
rating_values = st.one_of(
    st.sampled_from([np.nan, -np.nan, -0.0, 0.0, 0.5, 3.5, 4.5, 5.0, 1e-07, 1e21, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, 7, 8, 9, 17]), st.data())
def test_saved_bytes_equal_the_per_value_formatter(n, data):
    # eight-row chunks: 7, 9 and 17 rows end inside, just past and two chunks past one
    users, items, times = (np.array(data.draw(st.lists(int64_values, min_size=n, max_size=n)), dtype=np.int64)
                           for _ in range(3))
    ratings = np.array(data.draw(st.lists(rating_values, min_size=n, max_size=n)), dtype=np.float64)
    # built directly: build would sort by time and check ids against the counts
    log = InteractionLog(users=users, items=items, times=times, ratings=ratings,
                         n_users=int(users.max(initial=0)) + 1, n_items=int(items.max(initial=0)) + 1)
    want = reference_text(users.tolist(), items.tolist(), ratings.tolist(), times.tolist()).encode("ascii")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(dataset, "_WRITE_ROWS", 8):
        path = Path(tmp) / "log.tsv"
        save_interactions(log, path)
        assert path.read_bytes() == want


@pytest.mark.parametrize("column, name", [("users", "user id"), ("items", "item id"), ("times", "time")])
def test_a_negative_id_or_time_is_refused_before_any_file_is_made(tmp_path, column, name):
    cols = {"users": np.array([0, 1, 2]), "items": np.array([1, 0, 1]), "times": np.array([10, 20, 30])}
    cols[column] = np.array([3, -5, 4])
    log = InteractionLog(**cols, ratings=np.array([4.0, np.nan, 3.5]), n_users=5, n_items=5)
    path = tmp_path / "out" / "log.tsv"
    with pytest.raises(ValueError, match=f"negative {name}: -5"):
        save_interactions(log, path)
    assert list(tmp_path.iterdir()) == []


def test_build_sorts_stably_on_equal_times():
    log = InteractionLog.build(users=[3, 1, 2], items=[0, 0, 0], times=[5, 5, 5], n_users=4, n_items=1)
    assert log.users.tolist() == [3, 1, 2]


def test_arrays_are_read_only():
    log = InteractionLog.build(users=[0], items=[0], times=[1])
    with pytest.raises(ValueError):
        log.users[0] = 5


@st.composite
def small_logs(draw):
    """Logs with repeated pairs and equal times; possibly empty, possibly one item."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 5))
    row = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1), st.integers(0, 3))
    rows = draw(st.lists(row, max_size=40))
    return InteractionLog.build(
        [u for u, _, _ in rows], [i for _, i, _ in rows], [t for _, _, t in rows], None, n_users, n_items
    )


@settings(max_examples=200, deadline=None)
@given(small_logs())
def test_pair_set_matches_a_set_of_tuples(log):
    pairs = log.pairs
    want = sorted(set(zip(log.users.tolist(), log.items.tolist())))
    got = pairs.contains(np.arange(log.n_users)[:, None], np.arange(log.n_items)[None, :])
    assert got.shape == (log.n_users, log.n_items)
    assert sorted(zip(*map(np.ndarray.tolist, np.nonzero(got)))) == want
    assert pairs.offsets.size == log.n_users + 1 and pairs.offsets[0] == 0
    for u in range(log.n_users):
        assert pairs.items[pairs.offsets[u] : pairs.offsets[u + 1]].tolist() == [i for v, i in want if v == u]
    # the latest click of each pair; of equal-time clicks, the later log row
    assert list(zip(log.users[pairs.last_row].tolist(), log.items[pairs.last_row].tolist())) == want
    for row in pairs.last_row.tolist():
        same = [r for r in range(len(log)) if (log.users[r], log.items[r]) == (log.users[row], log.items[row])]
        assert row == max(same, key=lambda r: (log.times[r], r))


@settings(max_examples=200, deadline=None)
@given(small_logs(), st.data())
def test_dense_pair_set_answers_as_the_sorted_search(log, data):
    pairs = log.pairs
    dense = pairs.dense()
    assert isinstance(dense, DensePairSet)
    assert dense.n_items == pairs.n_items and dense.offsets is pairs.offsets
    # every in-range key, as a broadcast grid, then as 1-D arrays with repeats
    users, items = np.arange(log.n_users)[:, None], np.arange(log.n_items)[None, :]
    assert np.array_equal(dense.contains(users, items), pairs.contains(users, items))
    n = data.draw(st.integers(0, 30))
    users = np.array(data.draw(st.lists(st.integers(0, log.n_users - 1), min_size=n, max_size=n)), dtype=np.int64)
    items = np.array(data.draw(st.lists(st.integers(0, log.n_items - 1), min_size=n, max_size=n)), dtype=np.int64)
    got = dense.contains(users, items)
    assert got.dtype == bool and np.array_equal(got, pairs.contains(users, items))


def test_dense_pair_set_is_built_only_within_its_budget():
    log = InteractionLog.build([0, 1, 2], [1, 0, 3], [0, 1, 2], None, 3, 4)
    with mock.patch.object(dataset, "DENSE_PAIR_BYTES", 12):
        dense = log.pairs.dense()
    assert isinstance(dense, DensePairSet)
    assert dense.contains([0, 1, 2, 2], [1, 1, 3, 0]).tolist() == [True, False, True, False]
    with mock.patch.object(dataset, "DENSE_PAIR_BYTES", 11):
        assert log.pairs.dense() is log.pairs
    empty = InteractionLog.build([], [], [], None, 3, 2).pairs.dense()
    assert empty.contains([0, 2], [1, 0]).tolist() == [False, False]


def test_pair_set_is_computed_once_and_read_only():
    log = InteractionLog.build(users=[0, 1, 0], items=[1, 0, 1], times=[3, 2, 1], n_users=2, n_items=2)
    assert log.pairs is log.pairs
    assert log.pairs.items.tolist() == [1, 0] and log.pairs.offsets.tolist() == [0, 1, 2]
    for arr in (log.pairs.offsets, log.pairs.items, log.pairs.last_row):
        with pytest.raises(ValueError):
            arr[0] = 1
    empty = InteractionLog.build([], [], [], None, 3, 2).pairs
    assert empty.offsets.tolist() == [0, 0, 0, 0] and empty.contains([0, 2], [1, 0]).tolist() == [False, False]


def test_n_core_filter_removes_sparse_users_iteratively():
    # user 3 has a single click on item 2; dropping it starves item 2,
    # which strands user 2 below threshold, whose removal finally leaves
    # the dense 2x2 core with exactly two clicks per id
    users = [0, 0, 1, 1, 2, 2, 3]
    items = [0, 1, 0, 1, 2, 0, 2]
    times = [1, 2, 3, 4, 5, 6, 7]
    log = InteractionLog.build(users, items, times)
    out = n_core_filter(log, 2)
    assert out.n_users == 2 and out.n_items == 2
    assert len(out) == 4
    pairs = sorted(zip(out.users.tolist(), out.items.tolist()))
    assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_n_core_filter_fixpoint_cascades():
    # chain: removing user 1 leaves item 1 with one click, which then
    # removes user 0's second interaction, leaving user 0 below n as well
    users = [0, 0, 1]
    items = [0, 1, 1]
    times = [1, 2, 3]
    log = InteractionLog.build(users, items, times)
    with pytest.raises(ValueError, match="eliminated all data"):
        n_core_filter(log, 2)


def test_n_core_filter_noop_when_dense():
    users = [0, 0, 1, 1]
    items = [0, 1, 0, 1]
    times = [1, 2, 3, 4]
    log = InteractionLog.build(users, items, times)
    out = n_core_filter(log, 2)
    assert len(out) == 4
    assert out.users.tolist() == log.users.tolist()


def test_part_assignments_uniform_in_time():
    times = np.array([0, 9, 10, 19, 99, 100])
    parts = part_assignments(times, t_min=0, t_max=100, parts=10)
    # idx = floor((t - t_min) * parts / span), clamped to parts - 1
    assert parts.tolist() == [0, 0, 1, 1, 9, 9]


def test_part_assignments_single_instant():
    # zero span: every time equals t_max, which always lands in the last part
    times = np.array([5, 5, 5])
    parts = part_assignments(times, t_min=5, t_max=5, parts=10)
    assert parts.tolist() == [9, 9, 9]


def test_part_assignments_refuses_a_span_whose_product_with_parts_overflows():
    # (t - t_min) * parts in int64 would wrap these to [0, 0, -2, -2]; the answer is [0, 4, 9, 9]
    times = np.array([0, 2**61, 2**62, 2**62 + 5])
    span = 2**62 + 5
    with pytest.raises(ValueError, match=f"a time span of {span} in 10 parts overflows int64"):
        part_assignments(times, 0, span, 10)
    with pytest.raises(ValueError, match=f"a time span of {span} in 10 parts overflows int64"):
        chrono_split(InteractionLog.build([0, 1, 0, 1], [0, 0, 1, 1], times), parts=10)
    # the widest span that fits still assigns exactly
    widest = (2**63 - 1) // 10
    assert part_assignments(np.array([0, widest // 2 - 1, widest // 2, widest]), 0, widest, 10).tolist() == [0, 4, 5, 9]


def test_part_assignments_reads_a_time_far_past_t_max_in_the_last_part():
    # (4e18 - 0) * 3 wraps int64 to part -22 unless the time is clamped to t_max first
    assert part_assignments(np.array([4 * 10**18, 3 * 10**17, 10**17]), 0, 3 * 10**17, 3).tolist() == [2, 2, 1]


def make_random_log(seed, n=400, n_users=30, n_items=20, span=10_000):
    rng = np.random.default_rng(seed)
    return InteractionLog.build(
        users=rng.integers(0, n_users, n),
        items=rng.integers(0, n_items, n),
        times=rng.integers(0, span, n),
        ratings=rng.integers(1, 6, n).astype(float),
        n_users=n_users,
        n_items=n_items,
    )


def test_chrono_split_partitions_and_boundaries():
    log = make_random_log(0)
    split = chrono_split(log, parts=10, split_seed=0)
    assert len(split.boundaries) == 11
    assert split.boundaries[0] == log.t_min
    assert split.boundaries[-1] >= log.t_max
    total = len(split.train) + len(split.validation) + len(split.test)
    assert total == len(log)
    # every held-out record is no earlier than every training record
    assert split.train.t_max <= min(split.validation.t_min, split.test.t_min)


def test_chrono_split_train_holds_first_nine_parts():
    log = make_random_log(1)
    split = chrono_split(log, parts=10, split_seed=0)
    idx = part_assignments(log.times, log.t_min, log.t_max, 10)
    assert len(split.train) == int((idx < 9).sum())


def test_chrono_split_validation_and_test_users_disjoint():
    for seed in range(5):
        log = make_random_log(seed + 10)
        split = chrono_split(log, parts=10, split_seed=seed)
        vu = set(split.validation.users.tolist())
        tu = set(split.test.users.tolist())
        assert not (vu & tu)


def test_chrono_split_user_shuffle_depends_on_seed():
    log = make_random_log(3, n=2000, n_users=80)
    a = chrono_split(log, parts=10, split_seed=0)
    b = chrono_split(log, parts=10, split_seed=1)
    assert set(a.validation.users.tolist()) != set(b.validation.users.tolist())


def test_chrono_split_deterministic_for_fixed_seed():
    log = make_random_log(4)
    a = chrono_split(log, parts=10, split_seed=7)
    b = chrono_split(log, parts=10, split_seed=7)
    assert a.validation.users.tolist() == b.validation.users.tolist()
    assert a.test.times.tolist() == b.test.times.tolist()


@pytest.mark.parametrize("parts,shown", [
    (12, "empty time parts: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    (13, "empty time parts: 11 of 13, the first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
    (100_000, "empty time parts: 99998 of 100000, the first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
])
def test_chrono_split_lists_at_most_ten_empty_parts(parts, shown):
    # a click at each end of the time range leaves every part in between empty
    log = InteractionLog.build([0, 1], [0, 1], [0, 1000], None, 2, 2)
    with pytest.warns(UserWarning) as caught:
        chrono_split(log, parts=parts)
    assert [str(w.message) for w in caught] == [shown]


def test_chrono_split_refuses_fewer_than_two_parts():
    with pytest.raises(ValueError, match=r"^parts must be >= 2, got 1$"):
        chrono_split(make_random_log(0), parts=1)


def test_split_save_load_roundtrip(tmp_path):
    log = make_random_log(5)
    split = chrono_split(log, parts=10, split_seed=0)
    save_split(split, tmp_path / "split")
    back = load_split(tmp_path / "split")
    assert isinstance(back, ChronoSplit)
    for part in ("train", "validation", "test"):
        a, b = getattr(split, part), getattr(back, part)
        assert a.users.tolist() == b.users.tolist()
        assert a.items.tolist() == b.items.tolist()
        assert a.times.tolist() == b.times.tolist()
    assert back.boundaries == split.boundaries
    # ids must keep the parent space, not recompact per part
    assert back.train.n_users == split.train.n_users
    assert back.train.n_items == split.train.n_items


def test_load_split_rejects_a_partition_whose_row_count_disagrees(tmp_path):
    split = chrono_split(make_random_log(5), parts=10, split_seed=0)
    save_split(split, tmp_path)
    path = tmp_path / "test.tsv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-3]))
    n = len(split.test)
    with pytest.raises(DataFormatError, match=rf"test\.tsv holds {n - 3} rows; the manifest counts {n}"):
        load_split(tmp_path)
    # a partition the manifest counts as empty is still read
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["counts"]["test"] = 0
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=rf"test\.tsv holds {n - 3} rows; the manifest counts 0"):
        load_split(tmp_path)


# ---------------------------------------------------------------- the two readers

# Other spellings of a clean id n. The C reader reads the first five as an
# integer, n itself in three of them, while _compact keys ids by token;
# it rejects the rest: a decimal point, a digit separator, unicode digits, a
# byte-order mark, a non-number, an int64 overflow. n + 10 is past the test
# manifest's 10 users and items.
ID_SPELLINGS = [
    "0{}".format, "+{}".format, " {}".format, "-{}".format, lambda n: str(n + 10),
    "{}.0".format, "0_{}".format, lambda n: "".join(chr(0x660 + int(d)) for d in str(n)),
    lambda n: "".join(chr(0xFF10 + int(d)) for d in str(n)), "\ufeff{}".format, "u{}".format,
    "{}00000000000000000000".format,
]
# Odd ratings and times: the C reader takes the first list of each, and rejects the second.
ODD_TOKENS = {
    2: (["nan", "NaN", "-nan", "inf", "0", "9", "-1", "0.49999999999999999", "5.000000000000000001", " 3 ", "1e0"],
        ["3_0", "٣", "0x1", ""]),
    3: (["-5", "07", "+3", " 4"], ["oops", "1e3", "", "1_000"]),
}
CLEAN_ID = st.one_of(st.sampled_from(["7", "0"]), st.integers(0, 9).map(str))
CLEAN_ROW = st.tuples(
    CLEAN_ID,
    CLEAN_ID,
    st.one_of(st.sampled_from(["1", "2.5", "4.5", "5", "0.5", "nan"]), st.floats(0.5, 5.0).map(repr),
              # long decimals: both readers must round them to the same float
              st.builds("{}.{}".format, st.integers(1, 4), st.integers(10**15, 10**30))),
    st.integers(0, 10**6).map(str),
).map(list)


@st.composite
def tsv_texts(draw):
    """Clean rows with extra columns here and there, and one kind of oddity.

    The oddity is none, a few odd ids, a few odd ratings or times, one blank,
    whitespace or short line, or CRLF endings. An odd id is a copy of a row
    with the id spelled another way, so both spellings are in the file.
    """
    rows = draw(st.lists(CLEAN_ROW, min_size=1, max_size=8))
    clean = [list(row) for row in rows]
    kind = draw(st.sampled_from(["none", "id", "token", "line", "crlf"]))
    for _ in range(draw(st.integers(1, 2)) if kind in ("id", "token") else 0):
        if kind == "id":
            row, col = list(draw(st.sampled_from(clean))), draw(st.integers(0, 1))
            row[col] = draw(st.sampled_from(ID_SPELLINGS))(int(row[col]))
            rows.insert(draw(st.integers(0, len(rows))), row)
        else:
            col = draw(st.integers(2, 3))
            taken, rejected = ODD_TOKENS[col]
            token = draw(st.one_of(st.sampled_from(taken), st.sampled_from(taken + rejected)))
            draw(st.sampled_from(rows))[col] = token
    lines = ["\t".join(row + draw(st.lists(st.sampled_from(["x", "1", ""]), max_size=2))) for row in rows]
    if kind == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t", "1\t2\t3"])))
    ending = "\r\n" if kind == "crlf" else "\n"
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


def load_outcome(load, path, by_line: bool):
    """The log ``load`` reads, or its exception's type and message; ``by_line`` forces ``_read_rows``."""
    with mock.patch.object(dataset, "_fast_rows", return_value=None) if by_line else contextlib.nullcontext():
        try:
            return load(path)
        except Exception as exc:
            return type(exc), str(exc)


def same_outcome(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    if isinstance(a, ChronoSplit):
        return all(same_outcome(getattr(a, part), getattr(b, part)) for part in ("train", "validation", "test"))
    columns = ("users", "items", "times", "ratings")
    return (a.n_users, a.n_items) == (b.n_users, b.n_items) and all(
        np.array_equal(getattr(a, col), getattr(b, col), equal_nan=True) for col in columns)


@settings(max_examples=150, deadline=None)
@given(tsv_texts())
def test_raw_log_reads_the_same_by_either_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.tsv"
        path.write_bytes(text.encode("utf-8"))
        fast = load_outcome(load_interactions, path, by_line=False)
        assert same_outcome(fast, load_outcome(load_interactions, path, by_line=True)), fast


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(""), tsv_texts()), min_size=3, max_size=3), st.sampled_from([0, 0, 0, -1, 1]))
def test_split_reads_the_same_by_either_reader(texts, count_error):
    with tempfile.TemporaryDirectory() as tmp:
        indir = Path(tmp)
        counts = {}
        for name, text in zip(("train", "validation", "test"), texts):
            (indir / f"{name}.tsv").write_bytes(text.encode("utf-8"))
            counts[name] = sum(1 for line in text.splitlines() if line.strip())
        counts["train"] = max(0, counts["train"] + count_error)
        manifest = {"boundaries": [0.0, 1.0], "parts": 2, "seed": 0, "n_users": 10, "n_items": 10, "counts": counts}
        (indir / "manifest.json").write_text(json.dumps(manifest))
        fast = load_outcome(load_split, indir, by_line=False)
        assert same_outcome(fast, load_outcome(load_split, indir, by_line=True)), fast


def test_the_c_reader_takes_plain_files_and_leaves_the_rest_to_read_rows(tmp_path):
    split = chrono_split(make_random_log(5), parts=10, split_seed=0)
    save_split(split, tmp_path)
    assert dataset._fast_rows(tmp_path / "train.tsv", raw_ids=True).size == len(split.train)
    path = tmp_path / "log.tsv"
    write_lines(path, ["7\t30\t5\t300", "10\t1\tnan\t100"])
    assert dataset._fast_rows(path, raw_ids=True) is not None
    # "07" is its own id to _compact but 7 to the C reader; a split's ids are read by int() either way
    write_lines(path, ["7\t30\t5\t300", "07\t1\tnan\t100"])
    assert dataset._fast_rows(path, raw_ids=True) is None
    assert dataset._fast_rows(path, raw_ids=False) is not None
    assert load_interactions(path).n_users == 2
    for bad in ("7\t30\t9\t300", "7\t30\t5\t-1", "7\t30\t5", "7\t30\t5\toops"):
        write_lines(path, [bad])
        assert dataset._fast_rows(path, raw_ids=False) is None
    # each other spelling of an id, beside the id itself, reads as _read_rows reads it
    for spell in ID_SPELLINGS:
        for n in (0, 7):
            write_lines(path, [f"{n}\t1\t5\t300", f"{spell(n)}\t1\t5\t100"])
            fast = load_outcome(load_interactions, path, by_line=False)
            assert same_outcome(fast, load_outcome(load_interactions, path, by_line=True)), (spell(n), fast)
