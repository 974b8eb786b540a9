"""Ranking metrics against brute-force oracles, and the two eval tasks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tide import evaluation
from tide.dataset import InteractionLog
from tide.evaluation import (
    ClickTask,
    PreferenceTask,
    RankedList,
    click_prediction_eval,
    ndcg_at_k,
    precision_at_k,
    preference_prediction_eval,
    rank_tasks,
    rank_topk,
    recall_at_k,
    topk_rows,
)


def brute_topk(scores, k, exclusions=()):
    """Sort by (-score, id) over the allowed ids and cut at k."""
    allowed = [i for i in range(len(scores)) if i not in set(exclusions)]
    allowed.sort(key=lambda i: (-scores[i], i))
    return allowed[:k]


def brute_recall(top, relevant, k):
    return len(set(top[:k]) & set(relevant)) / len(relevant)


def brute_precision(top, relevant, k):
    return len(set(top[:k]) & set(relevant)) / k


def brute_ndcg(top, relevant, k):
    rel = set(relevant)
    dcg = sum(1.0 / math.log2(r + 2) for r, item in enumerate(top[:k]) if item in rel)
    ideal = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(rel))))
    return dcg / ideal


def test_rank_topk_orders_by_score_then_id():
    scores = np.array([1.0, 3.0, 3.0, 2.0])
    top = rank_topk(scores, user=0, k=3)
    assert top.items.tolist() == [1, 2, 3]
    assert top.scores.tolist() == [3.0, 3.0, 2.0]


def test_rank_topk_respects_exclusions():
    scores = np.array([5.0, 4.0, 3.0, 2.0])
    top = rank_topk(scores, user=0, k=2, exclusions=[0, 1])
    assert top.items.tolist() == [2, 3]
    with pytest.raises(ValueError, match="no candidates"):
        rank_topk(scores, user=0, k=1, exclusions=[0, 1, 2, 3])


def test_rank_topk_shorter_than_k():
    scores = np.array([1.0, 2.0])
    top = rank_topk(scores, user=0, k=10)
    assert top.items.tolist() == [1, 0]


def test_rank_topk_over_explicit_candidates():
    scores = np.array([9.0, 1.0, 5.0, 5.0, 7.0])
    top = rank_topk(scores, user=0, k=3, exclusions=[0])
    assert top.items.tolist() == [4, 2, 3]


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 11))
        scores = np.round(rng.uniform(0, 1, n), 1)  # coarse grid forces ties
        n_excl = int(rng.integers(0, n))
        exclusions = list(rng.choice(n, size=n_excl, replace=False)) if n_excl else []
        if len(exclusions) == n:
            continue
        relevant = [int(i) for i in rng.choice(n, size=rng.integers(1, n + 1), replace=False)]
        top = rank_topk(scores, user=0, k=k, exclusions=exclusions)
        want_items = brute_topk(scores, k, exclusions)
        assert top.items.tolist() == want_items
        assert abs(recall_at_k(top, relevant, k) - brute_recall(want_items, relevant, k)) <= 1e-12
        assert abs(precision_at_k(top, relevant, k) - brute_precision(want_items, relevant, k)) <= 1e-12
        assert abs(ndcg_at_k(top, relevant, k) - brute_ndcg(want_items, relevant, k)) <= 1e-12


def test_ndcg_perfect_and_worst_order():
    top = RankedList(user=0, items=np.array([0, 1, 2]), scores=np.array([3.0, 2.0, 1.0]))
    assert ndcg_at_k(top, {0, 1, 2}, 3) == 1.0
    assert ndcg_at_k(top, {0}, 1) == 1.0
    # single relevant item ranked last out of 3 at k=3
    got = ndcg_at_k(top, {2}, 3)
    assert math.isclose(got, (1.0 / math.log2(4)) / 1.0, rel_tol=1e-12)


def test_empty_relevant_set_rejected():
    top = RankedList(user=0, items=np.array([0]), scores=np.array([1.0]))
    with pytest.raises(ValueError):
        recall_at_k(top, set(), 1)
    with pytest.raises(ValueError):
        ndcg_at_k(top, set(), 1)
    assert precision_at_k(top, set(), 1) == 0.0


def fixed_scorer(table):
    """One-mode block scorer over a {user: score row} table."""
    return lambda users: [np.array([table[u] for u in users], dtype=np.float64)]


def test_click_eval_excludes_training_items_and_macro_averages():
    # two users over four items; scores descending by item id
    train = InteractionLog.build([0, 1], [0, 1], [0, 1], None, 2, 4)
    test = InteractionLog.build([0, 0, 1], [1, 2, 0], [10, 11, 12], None, 2, 4)
    scores = {0: [9.0, 3.0, 2.0, 1.0], 1: [9.0, 3.0, 2.0, 1.0]}
    out = click_prediction_eval(fixed_scorer(scores), train, test, k=2)
    # user 0: candidates {1,2,3}, top-2 = [1,2], relevant {1,2} -> recall 1
    # user 1: candidates {0,2,3}, top-2 = [0,2], relevant {0}   -> recall 1
    assert out["recall"] == 1.0
    assert out["precision"] == pytest.approx((2 / 2 + 1 / 2) / 2)
    assert out["n_users"] == 2


def test_click_eval_skips_users_with_no_new_items():
    train = InteractionLog.build([0, 0, 1], [0, 1, 0], [0, 1, 2], None, 2, 2)
    # user 0 already consumed both items in training
    test = InteractionLog.build([0, 1], [1, 1], [10, 11], None, 2, 2)
    out = click_prediction_eval(fixed_scorer({0: [1.0, 2.0], 1: [1.0, 2.0]}), train, test, k=1)
    assert out["n_users"] == 1
    assert out["n_skipped"] == 1


def test_click_eval_per_user_collection():
    train = InteractionLog.build([0], [0], [0], None, 1, 3)
    test = InteractionLog.build([0], [2], [5], None, 1, 3)
    out = click_prediction_eval(fixed_scorer({0: [0.0, 1.0, 2.0]}), train, test, k=1, collect_per_user=True)
    assert 0 in out["per_user"]
    assert out["per_user"][0]["recall"] == 1.0


def rated_log(rows, n_users, n_items):
    users, items, times, ratings = zip(*rows)
    return InteractionLog.build(users, items, times, ratings, n_users, n_items)


def test_preference_eval_ranks_only_rated_items():
    # user 0 rates three test items: item 2 best; scorer puts item 2 on top
    test = rated_log([(0, 0, 10, 2.0), (0, 1, 11, 3.0), (0, 2, 12, 5.0)], 1, 4)
    scores = {0: [1.0, 2.0, 9.0, 100.0]}  # item 3 unrated: must not matter
    out = preference_prediction_eval(fixed_scorer(scores), test, k=1)
    assert out["n_users"] == 1
    assert out["recall"] == 1.0
    assert out["precision"] == 1.0


def test_preference_eval_skips_degenerate_users():
    test = rated_log(
        [(0, 0, 10, 5.0), (0, 1, 11, 5.0), (1, 0, 12, 2.0), (1, 1, 13, 3.0), (2, 0, 14, 5.0), (2, 1, 15, 1.0)],
        3,
        2,
    )
    scores = {u: [2.0, 1.0] for u in range(3)}
    out = preference_prediction_eval(fixed_scorer(scores), test, k=1)
    # all-positive user 0 and all-negative user 1 are skipped
    assert out["n_users"] == 1
    assert out["n_skipped"] == 2


def test_preference_eval_keeps_fixed_precision_denominator():
    test = rated_log([(0, 0, 10, 5.0), (0, 1, 11, 1.0)], 1, 2)
    scores = {0: [2.0, 1.0]}
    out = preference_prediction_eval(fixed_scorer(scores), test, k=3)
    # one positive ranked within top-3 but the denominator stays 3
    assert out["precision"] == pytest.approx(1.0 / 3.0)
    assert out["recall"] == 1.0


def test_preference_eval_latest_rating_wins():
    test = rated_log([(0, 0, 10, 5.0), (0, 0, 20, 1.0), (0, 1, 15, 5.0)], 1, 2)
    scores = {0: [9.0, 1.0]}
    out = preference_prediction_eval(fixed_scorer(scores), test, k=1)
    # item 0's final rating is 1, so ranking it first is a miss
    assert out["precision"] == 0.0


def test_preference_eval_ignores_unrated_records():
    test = rated_log([(0, 0, 10, 5.0), (0, 1, 11, 2.0)], 1, 3)
    nan_row = InteractionLog.build([0], [2], [12], [np.nan], 1, 3)
    merged = InteractionLog.build(
        np.concatenate([test.users, nan_row.users]),
        np.concatenate([test.items, nan_row.items]),
        np.concatenate([test.times, nan_row.times]),
        np.concatenate([test.ratings, nan_row.ratings]),
        1,
        3,
    )
    scores = {0: [1.0, 0.5, 99.0]}
    out = preference_prediction_eval(fixed_scorer(scores), merged, k=1)
    assert out["n_users"] == 1
    assert out["precision"] == 1.0


def test_click_and_preference_share_one_pass():
    train = InteractionLog.build([0, 1], [0, 1], [0, 1], None, 2, 4)
    test = rated_log([(0, 1, 10, 5.0), (0, 2, 11, 1.0), (1, 0, 12, 5.0), (1, 3, 13, 2.0)], 2, 4)
    scores = {0: [9.0, 3.0, 2.0, 1.0], 1: [1.0, 3.0, 2.0, 9.0]}
    calls = []

    def scorer(users):
        calls.append(list(users))
        return fixed_scorer(scores)(users)

    [[click, pref]] = rank_tasks(scorer, [ClickTask(train, test, 2), PreferenceTask(test, 1)], collect_per_user=True)
    assert calls == [[0, 1]]
    assert click == click_prediction_eval(fixed_scorer(scores), train, test, k=2, collect_per_user=True)
    assert pref == preference_prediction_eval(fixed_scorer(scores), test, k=1, collect_per_user=True)
    assert pref["per_user"][0]["precision"] == 1.0  # item 1 outscores item 2
    assert pref["per_user"][1]["precision"] == 0.0  # item 3 outscores item 0


def test_rank_tasks_refuses_tasks_of_two_catalogs():
    train = InteractionLog.build([0], [0], [0], None, 1, 4)
    test = rated_log([(0, 1, 10, 5.0), (0, 2, 11, 1.0)], 1, 4)
    other = rated_log([(0, 1, 10, 5.0), (0, 2, 11, 1.0)], 1, 3)
    with pytest.raises(ValueError, match="one catalog"):
        rank_tasks(fixed_scorer({0: [0.0] * 4}), [ClickTask(train, test, 2), PreferenceTask(other, 1)])


# ------------------------------------------- blocked ranker vs brute-force oracles

SCORE_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)  # coarse, so ties straddle the k-th slot


def oracle_key(scores, i):
    """(-score, id) with nan last, as a full lexsort orders them."""
    s = scores[i]
    return (math.isnan(s), 0.0 if math.isnan(s) else -s, i)


def oracle_topk(scores, k, excluded):
    allowed = [i for i in range(len(scores)) if i not in excluded]
    return sorted(allowed, key=lambda i: oracle_key(scores, i))[:k]


@st.composite
def score_blocks(draw, values=SCORE_GRID):
    n_rows = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 9))
    scores = draw(hnp.arrays(np.float64, (n_rows, n_items), elements=st.sampled_from(values)))
    excluded = draw(hnp.arrays(np.bool_, (n_rows, n_items)))
    k = draw(st.integers(1, n_items + 3))  # k may exceed the catalog
    return scores, excluded, k


@settings(max_examples=300, deadline=None)
@given(score_blocks(values=SCORE_GRID + (np.inf, -np.inf, np.nan)))
def test_topk_rows_matches_brute_force(case):
    scores, excluded, k = case
    top = topk_rows(scores, k, excluded)
    assert top.shape == (scores.shape[0], min(k, scores.shape[1]))
    for r in range(scores.shape[0]):
        want = oracle_topk(scores[r], k, set(np.flatnonzero(excluded[r]).tolist()))
        got = top[r].tolist()
        assert got == want + [-1] * (len(got) - len(want))


def oracle_click(scores, train, test, k):
    """The per-user reference: sets, a full (-score, id) sort, scalar metrics."""
    seen, held = {}, {}
    for u, i in zip(train.users.tolist(), train.items.tolist()):
        seen.setdefault(u, set()).add(i)
    for u, i in zip(test.users.tolist(), test.items.tolist()):
        held.setdefault(u, set()).add(i)
    rows, skipped = {}, 0
    for u in sorted(held):
        s = seen.get(u, set())
        rel = held[u] - s
        if not rel or len(s) >= train.n_items:
            skipped += 1
            continue
        top = oracle_topk(scores[u], k, s)
        rows[u] = {
            "recall": brute_recall(top, rel, k),
            "precision": brute_precision(top, rel, k),
            "ndcg": brute_ndcg(top, rel, k),
            "n_relevant": len(rel),
        }
    return rows, skipped


def oracle_pref(scores, test, k, positive_rating=5.0):
    rows, skipped = {}, 0
    for u in sorted(set(test.users.tolist())):
        idx = [j for j in range(len(test)) if test.users[j] == u and not math.isnan(test.ratings[j])]
        latest = {}
        for j in sorted(idx, key=lambda j: test.times[j]):
            latest[int(test.items[j])] = float(test.ratings[j])
        positives = {i for i, r in latest.items() if r == positive_rating}
        if not positives or len(positives) == len(latest):
            skipped += 1
            continue
        top = sorted(latest, key=lambda i: oracle_key(scores[u], i))[:k]
        hits = len(set(top) & positives)
        rows[u] = {"recall": hits / len(positives), "precision": hits / k,
                   "n_rated": len(latest), "n_positive": len(positives)}
    return rows, skipped


@st.composite
def eval_instances(draw):
    n_users = draw(st.integers(1, 7))
    n_items = draw(st.integers(1, 7))
    scores = draw(hnp.arrays(np.float64, (n_users, n_items), elements=st.sampled_from(SCORE_GRID)))
    pair = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1))
    train_pairs = draw(st.lists(pair, max_size=3 * n_users * n_items))
    test_rows = draw(st.lists(
        st.tuples(pair, st.integers(0, 3), st.sampled_from((np.nan, 1.0, 3.0, 5.0))),
        max_size=4 * n_users,
    ))
    train = InteractionLog.build(
        [u for u, _ in train_pairs], [i for _, i in train_pairs], range(len(train_pairs)),
        None, n_users, n_items,
    )
    test = InteractionLog.build(
        [u for (u, _), _, _ in test_rows], [i for (_, i), _, _ in test_rows],
        [t for _, t, _ in test_rows], [r for _, _, r in test_rows], n_users, n_items,
    )
    k_click = draw(st.integers(1, n_items + 2))
    k_pref = draw(st.integers(1, 4))
    block_elements = draw(st.integers(1, 3 * n_items))  # rows per block need not divide the users
    return scores, train, test, k_click, k_pref, block_elements


def assert_rows_match(got_rows, want_rows):
    assert sorted(got_rows) == sorted(want_rows)
    for u, want in want_rows.items():
        for key, value in want.items():
            assert abs(got_rows[u][key] - value) <= 1e-12, (u, key)


@settings(max_examples=200, deadline=None)
@given(eval_instances())
def test_blocked_tasks_match_per_user_oracles(case):
    scores, train, test, k_click, k_pref, block_elements = case
    table = {u: scores[u] for u in range(scores.shape[0])}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "BLOCK_ELEMENTS", block_elements)
        # the tasks are built once and ranked twice: the first scorer's numbers must not survive
        tasks = [ClickTask(train, test, k_click), PreferenceTask(test, k_pref)]
        rank_tasks(fixed_scorer({u: -row for u, row in table.items()}), tasks, collect_per_user=True)
        [[out, pref]] = rank_tasks(fixed_scorer(table), tasks, collect_per_user=True)
        alone = preference_prediction_eval(fixed_scorer(table), test, k=k_pref, collect_per_user=True)
    want_click, skipped_click = oracle_click(scores, train, test, k_click)
    assert (out["n_users"], out["n_skipped"]) == (len(want_click), skipped_click)
    assert_rows_match(out["per_user"], want_click)
    want_pref, skipped_pref = oracle_pref(scores, test, k_pref)
    assert (pref["n_users"], pref["n_skipped"]) == (len(want_pref), skipped_pref)
    assert_rows_match(pref["per_user"], want_pref)
    assert alone == pref
    if want_click:
        assert out["recall"] == np.mean([want_click[u]["recall"] for u in sorted(want_click)])
    else:
        assert out["recall"] is None
