"""Ranking metrics against a brute-force oracle, plus the evaluate pipeline."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cmlrec import evaluation, models, rng
from cmlrec.datasets import InteractionDataset, SplitDataset, _Rows, item_history, split_dataset
from cmlrec.evaluation import (
    EvaluationError,
    evaluate,
    hit_metrics,
    item_history_table,
    map_at_k,
    median_popularity,
    mrr_at_k,
    ndcg_at_k,
    precision_recall_at_k,
    rank_items,
    report_csv,
    report_table,
    top_k,
)
from cmlrec.models import ModelKind, RelationContext, score
from cmlrec.parameters import init_parameters, load_checkpoint, save_checkpoint
from cmlrec.synthetic import planted_split
from cmlrec.training import Hyperparams, train
from oracles import brute_ap, brute_mrr, brute_ndcg, brute_precision, brute_recall, evaluate_per_user


class TestMetricExamples:
    def test_precision_recall_counting(self):
        ranked = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        relevant = {2, 7, 90, 91}
        p, r = precision_recall_at_k(ranked, relevant, 10)
        assert p == pytest.approx(0.2)
        assert r == pytest.approx(0.5)

    def test_precision_one_when_topk_all_relevant(self):
        ranked = list(range(5))
        p, _ = precision_recall_at_k(ranked, set(range(10)), 5)
        assert p == 1.0

    def test_zero_hits(self):
        p, r = precision_recall_at_k([1, 2], {5}, 2)
        assert (p, r) == (0.0, 0.0)

    def test_ndcg_ideal_rank_one(self):
        assert ndcg_at_k([3], {3}, 10) == pytest.approx(1.0)

    def test_ndcg_single_relevant_rank_two(self):
        got = ndcg_at_k([9, 3], {3}, 10)
        assert got == pytest.approx(1.0 / np.log2(3.0), abs=1e-4)
        assert got == pytest.approx(0.6309, abs=1e-4)

    def test_ndcg_no_hits_zero(self):
        assert ndcg_at_k([1, 2, 3], {7}, 10) == 0.0

    def test_map_perfect_prefix(self):
        assert map_at_k([4, 5, 1, 2], {4, 5}, 10) == pytest.approx(1.0)

    def test_map_hand_example(self):
        # hits at ranks 2 and 4, |relevant| = 3 -> (1/2 + 2/4) / 3
        assert map_at_k([9, 4, 8, 5], {4, 5, 6}, 10) == pytest.approx(1.0 / 3.0)

    def test_mrr_first_hit_rank_three(self):
        assert mrr_at_k([8, 9, 4], {4}, 10) == pytest.approx(1.0 / 3.0)

    def test_mrr_no_hit(self):
        assert mrr_at_k([8, 9], {4}, 10) == 0.0

    def test_empty_relevant_rejected(self):
        for fn in (ndcg_at_k, map_at_k, mrr_at_k):
            with pytest.raises(ValueError):
                fn([1], set(), 10)
        with pytest.raises(ValueError):
            precision_recall_at_k([1], set(), 10)


class TestOracleEquivalence:
    def test_200_random_instances_match_brute_force(self):
        gen = np.random.default_rng(2024)
        for case in range(200):
            catalog = int(gen.integers(2, 31))
            length = int(gen.integers(1, catalog + 1))
            ranked = gen.permutation(catalog)[:length].tolist()
            n_rel = int(gen.integers(1, min(5, catalog) + 1))
            relevant = set(gen.choice(catalog, size=n_rel, replace=False).tolist())
            k = int(gen.integers(1, 16))
            p, r = precision_recall_at_k(ranked, relevant, k)
            checks = [
                (p, brute_precision(ranked, relevant, k)),
                (r, brute_recall(ranked, relevant, k)),
                (ndcg_at_k(ranked, relevant, k), brute_ndcg(ranked, relevant, k)),
                (map_at_k(ranked, relevant, k), brute_ap(ranked, relevant, k)),
                (mrr_at_k(ranked, relevant, k), brute_mrr(ranked, relevant, k)),
            ]
            for got, want in checks:
                assert abs(got - want) < 1e-9, f"case {case}: {got} vs {want}"


class TestHitMetrics:
    def test_equal_to_per_user_functions(self):
        """Every hit-matrix value ``==`` its per-user metric function over
        seeded lists: |relevant| below and above k, short lists, no hits."""
        gen = np.random.default_rng(7)
        kinds = {"few relevant": 0, "many relevant": 0, "no hits": 0, "short list": 0}
        for case in range(300):
            k = int(gen.integers(1, 13))
            catalog = int(gen.integers(2, 40))
            width = min(k, catalog)
            rows, relevants = [], []
            for _ in range(int(gen.integers(1, 6))):
                ranked = gen.permutation(catalog)[: int(gen.integers(0, width + 1))].tolist()
                n_rel = int(gen.integers(1, catalog + 1))
                relevant = set(gen.choice(catalog, size=n_rel, replace=False).tolist())
                if gen.random() < 0.2:  # no hits
                    relevant -= set(ranked) or {-1}
                    relevant = relevant or {catalog}
                rows.append(ranked)
                relevants.append(relevant)
                kinds["few relevant" if len(relevant) < k else "many relevant"] += 1
                kinds["no hits"] += not set(ranked) & relevant
                kinds["short list"] += len(ranked) < width
            hits = np.array([[i < len(r) and r[i] in rel for i in range(width)] for r, rel in zip(rows, relevants)])
            got = hit_metrics(hits.reshape(len(rows), width), np.array([len(rel) for rel in relevants]), k)
            for u, (ranked, relevant) in enumerate(zip(rows, relevants)):
                want = (*precision_recall_at_k(ranked, relevant, k), ndcg_at_k(ranked, relevant, k),
                        map_at_k(ranked, relevant, k), mrr_at_k(ranked, relevant, k))
                assert tuple(float(m[u]) for m in got) == want, f"case {case} row {u}"
        assert min(kinds.values()) >= 50, kinds


class TestMonotonicity:
    def test_new_hit_in_list_never_hurts(self):
        # relevant set fixed; a top-k non-hit is replaced by a relevant item
        # that was missing from the list, so the list gains one hit
        gen = np.random.default_rng(31)
        checked = 0
        while checked < 150:
            catalog = int(gen.integers(6, 30))
            ranked = gen.permutation(catalog)[: int(gen.integers(3, catalog + 1))].tolist()
            k = int(gen.integers(1, 11))
            rel_size = int(gen.integers(1, 4))
            relevant = set(gen.choice(catalog, size=rel_size, replace=False).tolist())
            missing = [v for v in relevant if v not in ranked]
            non_hits = [i for i, v in enumerate(ranked[:k]) if v not in relevant]
            if not missing or not non_hits:
                continue
            improved = list(ranked)
            improved[non_hits[int(gen.integers(len(non_hits)))]] = missing[0]
            _, r0 = precision_recall_at_k(ranked, relevant, k)
            _, r1 = precision_recall_at_k(improved, relevant, k)
            assert r1 >= r0 - 1e-12
            assert mrr_at_k(improved, relevant, k) >= mrr_at_k(ranked, relevant, k) - 1e-12
            assert ndcg_at_k(improved, relevant, k) >= ndcg_at_k(ranked, relevant, k) - 1e-12
            checked += 1


class TestMedianPopularity:
    def _train_view(self, degrees):
        pairs = []
        for v, deg in enumerate(degrees):
            pairs.extend((u, v) for u in range(deg))
        n_u = max(degrees)
        return InteractionDataset.from_pairs(
            n_u, len(degrees), pairs, [f"u{i}" for i in range(n_u)], [f"v{j}" for j in range(len(degrees))]
        )

    def test_constant_recommendation(self):
        train = self._train_view([7, 1])
        assert median_popularity([[0], [0], [0]], train) == 7.0

    def test_lower_median_convention(self):
        train = self._train_view([1, 2, 3, 4])
        assert median_popularity([[0, 1], [2, 3]], train) == 2.0

    def test_empty_lists(self):
        train = self._train_view([1])
        assert median_popularity([], train) == 0.0

    def test_popularity_model_beats_metric_model_in_median(self):
        split = planted_split(num_users=80, num_items=60, n_clusters=6, interactions_per_user=20, seed=5)
        hp = Hyperparams(kind=ModelKind.CML, dim=8, n_relations=3, margin=0.5,
                         lr=0.02, batch_size=128, max_epochs=5, history_cap=10, seed=5)
        store, _ = train(split, hp)
        report = evaluate(store, hp.kind, split, phase="test", k=10, verbose=True)
        degrees = np.array([len(a) for a in split.train.item_users])
        popular_lists = []
        for rec in report.per_user:
            exclusions = set(int(v) for v in split.train.user_items[rec.user]) | set(
                int(v) for v in split.validation.user_items[rec.user]
            )
            order = sorted(range(split.num_items), key=lambda v: (-degrees[v], v))
            popular_lists.append([v for v in order if v not in exclusions][:10])
        popular_median = median_popularity(popular_lists, split.train)
        assert popular_median > report.median_popularity


class TestRankItems:
    def _store_1d(self, user_xs, item_xs):
        store = init_parameters(len(user_xs), len(item_xs), 1, 1, seed=0)
        store.user_vecs[:, 0] = user_xs
        store.item_vecs[:, 0] = item_xs
        return store

    def test_ascending_distance_order(self):
        store = self._store_1d([0.0], [0.9, 0.2, -0.5])
        ranked = rank_items(0, store, ModelKind.CML, np.empty(0, dtype=np.int64), 2)
        assert ranked.tolist() == [1, 2]

    def test_tie_broken_by_item_index(self):
        store = self._store_1d([0.0], [0.5, -0.5, 0.5, 0.3])
        ranked = rank_items(0, store, ModelKind.CML, np.empty(0, dtype=np.int64), 4)
        assert ranked.tolist() == [3, 0, 1, 2]

    def test_k_larger_than_candidates(self):
        store = self._store_1d([0.0], [0.1, 0.2, 0.3])
        ranked = rank_items(0, store, ModelKind.CML, np.array([1], dtype=np.int64), 10)
        assert ranked.tolist() == [0, 2]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        store = self._store_1d([0.0], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_items(0, store, ModelKind.CML, np.empty(0, dtype=np.int64), k)

    def test_exclusions_never_ranked(self):
        store = self._store_1d([0.0], [0.0, 0.1, 0.2, 0.3])
        ranked = rank_items(0, store, ModelKind.CML, np.array([0, 2], dtype=np.int64), 10)
        assert set(ranked.tolist()) == {1, 3}

    @pytest.mark.parametrize("exclusions", [
        [-1, 3],  # a negative index must not wrap round to the last item
        [-12, -13, 0, 12, 99],  # out of range on both sides
        [7, 2, 7, 2, 5],  # duplicated
        [11, 0, 6, 3],  # unsorted
        [],
    ])
    def test_exclusions_match_set_difference(self, exclusions):
        store = self._store_1d([0.0], np.linspace(-0.9, 0.8, 12))
        excluded = np.array(exclusions, dtype=np.int64)
        ranked = rank_items(0, store, ModelKind.CML, excluded, 12)
        assert sorted(ranked.tolist()) == np.setdiff1d(np.arange(12), excluded).tolist()

    @pytest.mark.parametrize("distances", [
        [0.3, 0.1, 0.3, 0.3, 0.2, 0.3, 0.5, 0.3],  # ties straddle every k from 3 to 6
        [np.inf, 0.2, np.inf, 0.1, np.inf, 0.4],
        [np.nan, 0.2, np.nan, 0.1, 0.3, np.inf],
        [np.nan, 0.2, np.nan, np.nan, np.nan],  # the k-th value is NaN for k >= 2
        [0.4] * 6,
    ])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8, 20])
    def test_bounded_top_k_matches_full_sort(self, distances, k):
        """The 2-D top-K of a block whose rows mix ties straddling k, ±inf,
        NaN (a NaN k-th value included), rows with fewer than k candidates
        and a fully excluded row equals a full ``lexsort`` of each row."""
        base = np.array(distances)
        width = 3 * len(base)
        gen = np.random.default_rng(len(base))
        rows = [
            (base, np.ones(len(base), dtype=bool)),  # the given values, every other item excluded
            (np.array([0.3, 0.1, 0.3, 0.3, 0.2, 0.3]), np.arange(6) % 2 == 0),  # ties straddle k, few candidates
            (np.array([np.inf, -np.inf, 0.1, np.inf, np.nan, -np.inf]), np.ones(6, dtype=bool)),
            (np.array([np.nan, 0.4, np.nan, 0.2, np.nan]), np.array([True, True, True, False, True])),
            (np.zeros(0), np.zeros(0, dtype=bool)),  # every item excluded
            (gen.permutation(np.repeat([0.2, 0.5, np.nan], width // 3)), np.ones(width, dtype=bool)),
        ]
        d = np.full((len(rows), width), 0.05)  # excluded entries would rank first if read
        excluded = np.ones(d.shape, dtype=bool)
        for i, (values, keep) in enumerate(rows):
            at = np.sort(gen.choice(width, size=len(values), replace=False))
            d[i, at] = values
            excluded[i, at[keep]] = False
        ranked = top_k(d, excluded, k)
        assert ranked.shape == (len(rows), min(k, width))
        for i in range(len(rows)):
            candidates = np.flatnonzero(~excluded[i])
            full = candidates[np.lexsort((candidates, d[i, candidates]))][:k]
            assert ranked[i, : len(full)].tolist() == full.tolist()
            assert (ranked[i, len(full):] == -1).all()
        assert (ranked[4] == -1).all()

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_whole_catalog_excluded(self, kind):
        store = init_parameters(3, 5, 4, 2, with_item_memory=True, seed=0)
        ranked = rank_items(1, store, kind, np.arange(5), 3, history=np.array([0, 2]), item_histories=[])
        assert ranked.tolist() == []

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("user", [-1, -5, 5, 6])
    def test_user_outside_the_store_rejected(self, kind, user):
        """A negative user would count from the end and rank another user's
        list; one past the end would fail inside the scorer."""
        store = init_parameters(5, 8, 3, 2, with_item_memory=True, seed=0)
        with pytest.raises(ValueError, match=rf"user {user} is outside \[0, 5\)"):
            rank_items(user, store, kind, np.array([0]), 3, history=np.array([1, 2]))

    # The 19 evaluated users: a budget of 30 elements ranks blocks of one
    # user; 720 one block scored a user per chunk, 1440 one block in chunks
    # of 2 users and 2**20 one block in one chunk. With 3 workers the blocks
    # hold 7, 7 and 5 users. The memory heads read 8-item histories (cap 8),
    # so they split the catalog into 30 candidate blocks at a budget of 30
    # and one at the others; every block of more than one user shares a
    # table of key weights but the last 3-worker block, which scores each of
    # its users alone. ``adacml`` ranks every block in one call, by classes of
    # equal history length.
    @pytest.mark.parametrize("budget", [30, 720, 1440, 2**20])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_lists_the_row_evaluate_ranks(self, kind, budget, monkeypatch):
        """``rank_items`` ranks one user from the scorer that ranks a block
        in ``evaluate``: with k the whole catalog, every list equals the
        user's row of the verbose report."""
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=7)
        store = init_parameters(40, 30, 6, 4, with_item_memory=kind.uses_item_memory, seed=7)
        item_table = item_history_table(split, 8) if kind.uses_item_memory else None
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        for workers in (1, 3):
            report = evaluate(store, kind, split, phase="test", k=30, history_cap=8, workers=workers, verbose=True)
            assert report.num_evaluated_users == 19
            for rec in report.per_user:
                exclusions = np.concatenate([split.train.user_items[rec.user], split.validation.user_items[rec.user]])
                history = evaluation.ranking_history(split, rec.user, kind, 8)
                ranked = rank_items(rec.user, store, kind, exclusions, 30, history=history, item_histories=item_table)
                assert ranked.tolist() == rec.ranked

    @staticmethod
    def _record_tables(monkeypatch) -> list[int]:
        """The support rows of every table of key weights built from now on."""
        tables = []
        key_weights = models._key_weights
        def recording(keys, support, cand_t):
            tables.append(len(support))
            return key_weights(keys, support, cand_t)

        monkeypatch.setattr(models, "_key_weights", recording)
        return tables

    @pytest.mark.parametrize("kind", [ModelKind.HLR, ModelKind.HLRPP], ids=lambda kind: kind.value)
    @pytest.mark.parametrize("budget", [60, 2**20])  # 15 candidate blocks of 2, or one of 30
    def test_a_shared_table_scores_each_user_as_alone(self, kind, budget, monkeypatch):
        """The distances of a block that shares a table of key weights equal,
        bit for bit, those of each user ranked alone, the one-user path of
        ``rank_items``."""
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=9)
        store = init_parameters(40, 30, 6, 4, with_item_memory=kind.uses_item_memory, seed=9)
        item_table = item_history_table(split, 8) if kind.uses_item_memory else None
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        users = np.flatnonzero(split.test.user_items.lengths > 0)
        histories = _Rows.of([evaluation.ranking_history(split, u, kind, 8) for u in users.tolist()])
        tables = self._record_tables(monkeypatch)
        shared = models.history_distances(users, histories, kind, store, item_table)
        blocks = 15 if budget == 60 else 1
        assert tables == [len(np.unique(histories.values))] * blocks  # the block shared its tables
        for i, u in enumerate(users.tolist()):
            tables.clear()
            alone = evaluation.candidate_distances(u, np.arange(30), kind, store, histories[i], item_table)
            assert alone.tobytes() == shared[i].tobytes()
            assert tables == [len(histories[i])] * blocks

    def test_key_table_shared_only_by_overlapping_histories(self, monkeypatch):
        """A block shares a table when its history slots number at least
        twice its distinct history items; otherwise each user is scored on
        its own, with its history as the table."""
        store = init_parameters(6, 30, 4, 3, seed=10)
        users = np.arange(6)
        tables = self._record_tables(monkeypatch)
        disjoint = [np.arange(5 * u, 5 * u + 5) for u in range(6)]  # 30 slots over 30 items
        half = [np.arange(5 * (u // 2), 5 * (u // 2) + 5) for u in range(6)]  # 30 slots over 15 items
        overlapping = [np.arange(3, 8)] * 6  # 30 slots over 5 items
        for histories, expected in ((disjoint, [5] * 6), (half, [15]), (overlapping, [5])):
            tables.clear()
            d = models.history_distances(users, _Rows.of(histories), ModelKind.HLR, store)
            assert tables == expected
            for u, history in zip(users.tolist(), histories):
                assert d[u].tobytes() == evaluation.candidate_distances(u, np.arange(30), ModelKind.HLR, store,
                                                                        history).tobytes()

    @pytest.mark.parametrize("kind", [ModelKind.HLR, ModelKind.HLRPP], ids=lambda kind: kind.value)
    def test_sharing_is_decided_per_candidate_step(self, kind, monkeypatch):
        """A block whose users fall into two groups of candidate blocks: the
        users with 6-item histories share one table per block, and the users
        with 2-item disjoint histories fail the rule and are ranked alone.
        Every row is, bit for bit, the user's own ``candidate_distances``."""
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", 400)
        gen = np.random.default_rng(12)
        store = init_parameters(9, 40, 4, 5, with_item_memory=kind.uses_item_memory, seed=12)
        item_table = _Rows.of([np.sort(gen.choice(9, size=2, replace=False)) for _ in range(40)])
        item_table = item_table if kind.uses_item_memory else None
        wide = [np.arange(6), np.arange(1, 7), np.arange(2, 8), np.arange(6)]  # 24 slots over 8 items
        narrow = [np.array([10, 11]), np.array([20, 21]), np.array([30, 31])]  # 6 slots over 6 items
        histories = [wide[0], narrow[0], wide[1], narrow[1], wide[2], narrow[2], wide[3]]
        users = np.array([0, 1, 2, 3, 4, 5, 8])
        # At N = 5, the 6-item rows split the 40 items into 3 blocks and the 2-item rows into one.
        assert [models._block_step(40, 5, max(w, 2)) for w in (6, 2)] == [14, 40]
        tables = self._record_tables(monkeypatch)
        d = models.history_distances(users, _Rows.of(histories), kind, store, item_table)
        assert tables == [8] * 3 + [2] * 3
        for i, (u, history) in enumerate(zip(users.tolist(), histories)):
            alone = evaluation.candidate_distances(u, np.arange(40), kind, store, history, item_table)
            assert alone.tobytes() == d[i].tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_brute_force_sort_of_scores(self, kind):
        gen = np.random.default_rng(31)
        store = init_parameters(6, 30, 5, 3, with_item_memory=True, seed=31)
        exclusions = np.array([2, 7, 11, 20], dtype=np.int64)
        hist = exclusions[:3]
        candidates = np.setdiff1d(np.arange(30), exclusions)
        ihists = [np.sort(gen.choice(6, size=int(gen.integers(0, 4)), replace=False)).astype(np.int64)
                  for _ in candidates]
        ranked = rank_items(1, store, kind, exclusions, 10, history=hist, item_histories=ihists)
        # The same histories as a table over the catalog, whose rows of excluded items are never read.
        rows = [np.array([0, 1, 4, 5], dtype=np.int64)] * 30
        for v, h in zip(candidates.tolist(), ihists):
            rows[v] = h
        table = _Rows.of(rows)
        assert rank_items(1, store, kind, exclusions, 10, history=hist, item_histories=table).tolist() == ranked.tolist()
        dist = {
            int(v): score(RelationContext(1, int(v), hist, ihists[i]), kind, store).distance
            for i, v in enumerate(candidates)
        }
        assert ranked.tolist() == sorted(dist, key=lambda v: (dist[v], v))[:10]


def _oracle_split():
    """4 users x 12 items; test items sit exactly on their user's point."""
    train_pairs = [(u, 3 * u + 2) for u in range(4)]
    test_pairs = [(u, 3 * u) for u in range(4)] + [(u, 3 * u + 1) for u in range(4)]
    ukeys = [f"u{i}" for i in range(4)]
    ikeys = [f"v{j}" for j in range(12)]
    train = InteractionDataset.from_pairs(4, 12, train_pairs, ukeys, ikeys)
    valid = InteractionDataset.from_pairs(4, 12, [], ukeys, ikeys)
    test = InteractionDataset.from_pairs(4, 12, test_pairs, ukeys, ikeys)
    split = SplitDataset(train=train, validation=valid, test=test, seed=0)
    store = init_parameters(4, 12, 2, 1, seed=0)
    for u in range(4):
        angle = 2 * np.pi * u / 4
        point = 0.9 * np.array([np.cos(angle), np.sin(angle)])
        store.user_vecs[u] = point
        store.item_vecs[3 * u] = point
        store.item_vecs[3 * u + 1] = point
        store.item_vecs[3 * u + 2] = -point
    return split, store


class TestItemHistoryTable:
    @staticmethod
    def _split():
        """20 users x 15 items: items 0 and 14 have no train users, items 1-3
        have many and the rest a few."""
        gen = np.random.default_rng(8)
        pairs = [(u, v) for u in range(20) for v in range(1, 14) if gen.random() < (0.9 if v < 4 else 0.25)]
        ukeys, ikeys = [f"u{i}" for i in range(20)], [f"v{j}" for j in range(15)]
        empty = InteractionDataset(20, 15, [], ukeys, ikeys)
        return SplitDataset(InteractionDataset(20, 15, pairs, ukeys, ikeys), empty, empty, seed=8)

    @pytest.mark.parametrize("cap", [0, 1, 4, 50])
    def test_matches_per_item_histories(self, cap, monkeypatch):
        split = self._split()
        counts = split.train.item_users.lengths
        assert counts[0] == counts[14] == 0 and counts.max() > 4 and (counts == 4).any()
        derived = []
        real = rng.substream
        monkeypatch.setattr(rng, "substream", lambda seed, *path: derived.append(path[-1]) or real(seed, *path))
        table = item_history_table(split, cap)
        assert derived == [v for v in range(15) if counts[v] > cap]  # none for a row that fits the cap
        # The reference draws every row on its own, from the same substreams.
        reference = [
            item_history(split, v, cap=cap, gen=rng.substream(split.seed, rng.EVALUATION, 1, v)
                         if counts[v] > cap else None)
            for v in range(15)
        ]
        assert len(table) == 15
        assert [table[v].tolist() for v in range(15)] == [h.tolist() for h in reference]


    def test_sparse_table_memory_is_bounded(self):
        """20,000 items, all held by one user but item 0, held by all 2,000:
        a zero-padded (20,000, 50) table alone would hold 7.6 MiB."""
        n_users, n_items = 2000, 20000
        items = np.arange(1, n_items)
        pairs = np.concatenate([np.column_stack((items % n_users, items)),
                                np.column_stack((np.arange(n_users), np.zeros(n_users, dtype=np.int64)))])
        ukeys, ikeys = [f"u{i}" for i in range(n_users)], [f"v{j}" for j in range(n_items)]
        empty = InteractionDataset(n_users, n_items, [], ukeys, ikeys)
        split = SplitDataset(InteractionDataset(n_users, n_items, pairs, ukeys, ikeys), empty, empty, seed=0)
        tracemalloc.start()
        try:
            table = item_history_table(split, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.lengths.tolist() == [50] + [1] * (n_items - 1)
        assert peak < 5 * 2**20, f"item_history_table peaked at {peak / 2**20:.1f} MiB"


class TestEvaluate:
    def test_perfect_oracle_bounds(self):
        split, store = _oracle_split()
        report = evaluate(store, ModelKind.CML, split, phase="test", k=10)
        assert report.recall == pytest.approx(1.0)
        assert report.ndcg == pytest.approx(1.0)
        assert report.mrr == pytest.approx(1.0)
        assert report.map == pytest.approx(1.0)
        assert report.precision == pytest.approx(2 / 10)
        assert report.num_evaluated_users == 4

    def test_deterministic_reports(self):
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=2)
        store = init_parameters(40, 30, 6, 3, seed=2)
        a = evaluate(store, ModelKind.HLR, split, phase="test", k=5, history_cap=8)
        b = evaluate(store, ModelKind.HLR, split, phase="test", k=5, history_cap=8)
        assert a == b

    def test_workers_do_not_change_results(self):
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=3)
        store = init_parameters(40, 30, 6, 3, seed=3)
        serial = evaluate(store, ModelKind.HLR, split, phase="test", k=5, workers=1)
        parallel = evaluate(store, ModelKind.HLR, split, phase="test", k=5, workers=4)
        assert serial == parallel

    def test_workers_do_not_change_hlrpp_results(self):
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=3)
        store = init_parameters(40, 30, 6, 3, with_item_memory=True, seed=3)
        serial = evaluate(store, ModelKind.HLRPP, split, phase="test", k=5, history_cap=8, workers=1)
        parallel = evaluate(store, ModelKind.HLRPP, split, phase="test", k=5, history_cap=8, workers=4)
        assert serial == parallel

    def test_history_streams_derived_only_over_the_cap(self, monkeypatch):
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=3)
        store = init_parameters(40, 30, 6, 3, with_item_memory=True, seed=3)
        cap = 9  # some user and some item lists fit the cap, others exceed it
        derived = []
        real = rng.substream
        monkeypatch.setattr(rng, "substream", lambda seed, *path: derived.append(path[1:]) or real(seed, *path))
        evaluate(store, ModelKind.HLRPP, split, phase="test", k=5, history_cap=cap)
        evaluated = [u for u in range(40) if len(split.test.user_items[u])]
        expected = [(0, u) for u in evaluated if len(split.train.user_items[u]) > cap]
        expected += [(1, v) for v in range(30) if len(split.train.item_users[v]) > cap]
        assert {side for side, _ in expected} == {0, 1}
        assert sorted(derived) == sorted(expected)

    def test_excluded_items_absent_from_rankings(self):
        split = planted_split(num_users=30, num_items=25, n_clusters=5, interactions_per_user=12, seed=4)
        store = init_parameters(30, 25, 4, 2, seed=4)
        for phase in ("validation", "test"):
            report = evaluate(store, ModelKind.CML, split, phase=phase, k=10, verbose=True)
            for rec in report.per_user:
                banned = set(int(v) for v in split.train.user_items[rec.user])
                if phase == "test":
                    banned |= set(int(v) for v in split.validation.user_items[rec.user])
                assert not (set(rec.ranked) & banned)

    @pytest.mark.parametrize("phase", ["validation", "test"])
    def test_a_leaked_exclusion_is_an_error(self, phase, monkeypatch):
        split, store = _oracle_split()
        split = SplitDataset(split.train, split.test, split.test, seed=0)
        # Item 3u + 1 is a validation item of user u, and 3u + 2 a train item;
        # the four users are ranked in one block, row u for user u.
        monkeypatch.setattr(evaluation, "top_k", lambda d, excluded, k: 3 * np.arange(len(d))[:, None] + [1, 2])
        with pytest.raises(EvaluationError, match=r"excluded items \[2\] recommended to user 0"
                           if phase == "validation" else r"excluded items \[1, 2\] recommended to user 0"):
            evaluate(store, ModelKind.CML, split, phase=phase, k=2)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("block_users", [1, 3])
    @pytest.mark.parametrize("phase", ["validation", "test"])
    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_equals_the_per_user_reference(self, kind, phase, block_users, workers, monkeypatch):
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=6)
        store = init_parameters(40, 30, 6, 3, with_item_memory=kind.uses_item_memory, seed=6)
        # cap 8: some user and item histories are subsampled, others used whole
        expected = evaluate_per_user(store, kind, split, phase, 5, 8)
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", block_users * split.num_items)
        got = evaluate(store, kind, split, phase=phase, k=5, history_cap=8, workers=workers, verbose=True)
        assert got == expected
        assert repr(got) == repr(expected)  # the same floats, to the last bit

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", [ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP], ids=lambda kind: kind.value)
    def test_cap_zero_ranks_like_cml(self, kind, workers):
        # With no user or item history the translation is zero, so every
        # list and metric is cml's, to the last bit.
        split = planted_split(num_users=40, num_items=30, n_clusters=5, interactions_per_user=15, seed=7)
        store = init_parameters(40, 30, 6, 3, with_item_memory=True, seed=7)
        plain = evaluate(store, ModelKind.CML, split, phase="test", k=5, workers=workers, verbose=True)
        got = evaluate(store, kind, split, phase="test", k=5, history_cap=0, workers=workers, verbose=True)
        assert all(r.empty_history for r in got.per_user)
        assert [dataclasses.replace(r, empty_history=False) for r in got.per_user] == plain.per_user
        assert got.num_empty_history == got.num_evaluated_users == plain.num_evaluated_users
        assert repr(dataclasses.replace(got, per_user=None, num_empty_history=0)) == repr(
            dataclasses.replace(plain, per_user=None))

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_means_are_left_to_right_sums(self, kind):
        split = planted_split(num_users=60, num_items=40, n_clusters=5, interactions_per_user=15, seed=8)
        store = init_parameters(60, 40, 6, 3, with_item_memory=kind.uses_item_memory, seed=8)
        report = evaluate(store, kind, split, phase="test", k=10, history_cap=8, verbose=True)
        for mean, field in ((report.precision, "precision"), (report.recall, "recall"), (report.ndcg, "ndcg"),
                            (report.map, "ap"), (report.mrr, "rr")):
            total = 0.0
            for rec in report.per_user:
                total += getattr(rec, field)
            assert repr(mean) == repr(total / report.num_evaluated_users)

    @staticmethod
    def _peak_of_evaluate(store, kind, split):
        tracemalloc.start()
        try:
            report = evaluate(store, kind, split, phase="test", k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_evaluated_users == split.num_users
        return peak

    @staticmethod
    def _wide_split(n_users, n_items, train_pairs):
        """``n_users`` x ``n_items``: the given train pairs, and one test
        item per user that no train pair holds."""
        users = np.arange(n_users)
        ukeys, ikeys = [f"u{i}" for i in range(n_users)], [f"v{j}" for j in range(n_items)]
        train = InteractionDataset(n_users, n_items, train_pairs, ukeys, ikeys)
        test = InteractionDataset(n_users, n_items, np.column_stack((users, 2 * users + 1)), ukeys, ikeys)
        return SplitDataset(train, InteractionDataset(n_users, n_items, [], ukeys, ikeys), test, seed=0)

    def test_block_memory_is_bounded(self, monkeypatch):
        """600 users x 20,000 items: the (users, catalog) arrays of one block
        hold about one ranking budget; the whole (600, 20,000) distance
        matrix alone would hold 92 MiB. ``lrml``'s (N, users, items) key
        logits, N = 8 > d = 2, size its chunks.

        One user x 20,000 items at d = N = 64: the user's row alone would
        make a 9.8 MiB difference buffer, and ``lrml`` as much again in key
        logits; the catalog is split into 10 parts of one budget instead.

        ``hlr``, 6 users x 20,000 items who share their 30 train items: the
        candidates split into 46 blocks, and each block's table of key
        weights holds N x 30 x 435 (1 MiB), under the stated bound of the
        users x ``_RANK_BLOCK_ELEMENTS`` float64s (6 MiB); a table over the
        whole catalog would hold 46 MiB.

        ``adacml``, 60 users x 20,000 items with 30 train items each: one
        length class of 60. At N = 1 the catalog splits into 5 blocks of
        4,000, and a chunk's (users, 30, 4,000) logits hold a user's 0.9 MiB,
        so each chunk is one user. Under the stated chunk bound, a chunk's
        logits and relations each hold about one budget, and with the block's
        distances the peak stays below 3 budgets (3 MiB); the logits of a
        whole block of 6 users would hold 5.5 MiB."""
        n_users, n_items = 600, 20000
        users = np.arange(n_users)
        split = self._wide_split(n_users, n_items, np.column_stack((users, 2 * users)))
        for kind, n_relations in ((ModelKind.CML, 1), (ModelKind.LRML, 8)):
            store = init_parameters(n_users, n_items, 2, n_relations, seed=0)
            peak = self._peak_of_evaluate(store, kind, split)
            assert peak < 8 * 2**20, f"{kind.value} evaluate peaked at {peak / 2**20:.1f} MiB"

        split = self._wide_split(1, n_items, [(0, 0)])
        for kind in (ModelKind.CML, ModelKind.LRML):
            store = init_parameters(1, n_items, 64, 64, seed=0)
            peak = self._peak_of_evaluate(store, kind, split)
            assert peak < 4 * 2**20, f"{kind.value} evaluate of one user peaked at {peak / 2**20:.1f} MiB"

        n_users = 6
        split = self._wide_split(n_users, n_items, [(u, 2 * v) for u in range(n_users) for v in range(30)])
        store = init_parameters(n_users, n_items, 4, 10, seed=0)
        tables = TestRankItems._record_tables(monkeypatch)
        peak = self._peak_of_evaluate(store, ModelKind.HLR, split)
        # The six users are one block that shares its tables: one per candidate block.
        assert tables == [30] * -(-n_items // models._block_step(n_items, 10, 30))
        bound = n_users * models._RANK_BLOCK_ELEMENTS * 8
        assert peak < bound, f"hlr evaluate peaked at {peak / 2**20:.1f} MiB"

        n_users = 60
        split = self._wide_split(n_users, n_items, [(u, 2 * (30 * u + v)) for u in range(n_users) for v in range(30)])
        store = init_parameters(n_users, n_items, 4, 1, seed=0)
        calls = []
        per_block = evaluation.history_distances
        monkeypatch.setattr(evaluation, "history_distances", lambda *args: calls.append(len(args[0])) or per_block(*args))
        peak = self._peak_of_evaluate(store, ModelKind.ADACML, split)
        assert calls == [6] * 10  # every block of 6 users is one history_distances call
        bound = 3 * models._RANK_BLOCK_ELEMENTS * 8
        assert peak < bound, f"adacml evaluate peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        split, store = _oracle_split()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evaluate(store, ModelKind.CML, split, phase="test", k=5, workers=workers)

    def test_users_without_relevants_skipped(self):
        split, store = _oracle_split()
        report = evaluate(store, ModelKind.CML, split, phase="test", k=5, verbose=True)
        evaluated = {rec.user for rec in report.per_user}
        assert evaluated == {0, 1, 2, 3}
        # validation view is empty: nobody is evaluable there
        with pytest.raises(EvaluationError):
            evaluate(store, ModelKind.CML, split, phase="validation", k=5)

    def test_shape_mismatch_names_both_shapes(self):
        split, _ = _oracle_split()
        wrong = init_parameters(9, 7, 2, 1, seed=0)
        with pytest.raises(ValueError) as err:
            evaluate(wrong, ModelKind.CML, split, phase="test")
        msg = str(err.value)
        assert "9 users" in msg and "7 items" in msg
        assert "4 users" in msg and "12 items" in msg

    def test_item_memory_model_needs_item_tensors(self):
        split, store = _oracle_split()
        with pytest.raises(ValueError):
            evaluate(store, ModelKind.HLRPP, split, phase="test")

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        split, store = _oracle_split()
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(store, ModelKind.CML, split, phase="test", k=k)

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_negative_history_cap_rejected(self, kind):
        split, _ = _oracle_split()
        store = init_parameters(4, 12, 2, 1, with_item_memory=kind.uses_item_memory, seed=0)
        with pytest.raises(ValueError, match="history_cap must be >= 0, got -1"):
            evaluate(store, kind, split, phase="test", history_cap=-1)

    def test_invalid_phase(self):
        split, store = _oracle_split()
        with pytest.raises(ValueError):
            evaluate(store, ModelKind.CML, split, phase="train")

    def test_metrics_within_unit_interval_randomized(self):
        gen = np.random.default_rng(55)
        for seed in range(5):
            split = planted_split(num_users=25, num_items=40, n_clusters=4,
                                  interactions_per_user=30, seed=seed)
            store = init_parameters(25, 40, 4, 2, seed=int(gen.integers(100)))
            report = evaluate(store, ModelKind.CML, split, phase="test", k=7)
            for name in ("precision", "recall", "ndcg", "map", "mrr"):
                value = getattr(report, name)
                assert 0.0 <= value <= 1.0, name


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("seed", [0, 1])
def test_trained_store_ranks_like_its_checkpoint(kind, seed, tmp_path):
    """The float64 store that ``train`` returns and its float32 checkpoint
    round trip give equal reports, top-K lists included, in both phases."""
    split = planted_split(num_users=120, num_items=60, n_clusters=6, interactions_per_user=20, seed=seed)
    hp = Hyperparams(kind=kind, dim=8, n_relations=3, margin=0.5, lr=0.01, batch_size=64,
                     max_epochs=3, history_cap=6, seed=seed)
    store, _ = train(split, hp)
    save_checkpoint(store, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    for phase in ("validation", "test"):
        expected = evaluate(store, kind, split, phase=phase, k=10, history_cap=6, verbose=True)
        assert evaluate(loaded, kind, split, phase=phase, k=10, history_cap=6, verbose=True) == expected


class TestReportRendering:
    def test_csv_round_trips_values(self):
        split, store = _oracle_split()
        report = evaluate(store, ModelKind.CML, split, phase="test", k=10)
        rows = dict(line.split(",") for line in report_csv(report).strip().splitlines()[1:])
        assert float(rows["recall"]) == pytest.approx(report.recall)
        assert float(rows["ndcg"]) == pytest.approx(report.ndcg)
        assert int(rows["num_evaluated_users"]) == 4
        assert rows["phase"] == "test"

    @pytest.mark.parametrize("kind,expected", [(ModelKind.HLR, 1), (ModelKind.CML, 0)])
    def test_users_ranked_with_an_empty_history_are_counted(self, kind, expected):
        # User 1 has a test item but no train items, so hlr ranks it with an
        # empty history; cml attends over no history at all.
        ukeys, ikeys = ["a", "b", "c"], [f"v{j}" for j in range(6)]
        train = InteractionDataset(3, 6, [(0, 0), (0, 1), (2, 4)], ukeys, ikeys)
        test = InteractionDataset(3, 6, [(0, 2), (1, 3), (2, 5)], ukeys, ikeys)
        split = SplitDataset(train=train, validation=InteractionDataset(3, 6, [], ukeys, ikeys), test=test, seed=0)
        report = evaluate(init_parameters(3, 6, 4, 2, seed=5), kind, split, phase="test", k=3)
        assert report.num_evaluated_users == 3
        assert report.num_empty_history == expected
        assert report_csv(report).splitlines()[-1] == f"num_empty_history,{expected}"

    def test_table_scales_by_100(self):
        split, store = _oracle_split()
        report = evaluate(store, ModelKind.CML, split, phase="test", k=10)
        table = report_table(report)
        assert "R@10" in table
        assert "100.00" in table  # recall of the oracle model
        assert "20.00" in table  # precision = 2/10
