"""Loading, filtering, and chronological splitting of interaction logs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tide import dataset
from tide.dataset import (
    ChronoSplit,
    DataFormatError,
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
