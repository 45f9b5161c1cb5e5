"""Ranking metrics against a brute-force oracle, plus the evaluate pipeline."""
from __future__ import annotations

import numpy as np
import pytest

from cmlrec import rng
from cmlrec.datasets import InteractionDataset, SplitDataset, split_dataset
from cmlrec.evaluation import (
    EvaluationError,
    evaluate,
    map_at_k,
    median_popularity,
    mrr_at_k,
    ndcg_at_k,
    precision_recall_at_k,
    rank_items,
    report_csv,
    report_table,
)
from cmlrec.models import ModelKind, RelationContext, score
from cmlrec.parameters import init_parameters
from cmlrec.synthetic import planted_split
from cmlrec.training import Hyperparams, train
from oracles import brute_ap, brute_mrr, brute_ndcg, brute_precision, brute_recall


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

    def test_exclusions_never_ranked(self):
        store = self._store_1d([0.0], [0.0, 0.1, 0.2, 0.3])
        ranked = rank_items(0, store, ModelKind.CML, np.array([0, 2], dtype=np.int64), 10)
        assert set(ranked.tolist()) == {1, 3}


    @pytest.mark.parametrize("kind", [ModelKind.HLR, ModelKind.HLRPP])
    def test_matches_brute_force_sort_of_scores(self, kind):
        gen = np.random.default_rng(31)
        store = init_parameters(6, 30, 5, 3, with_item_memory=True, seed=31)
        exclusions = np.array([2, 7, 11, 20], dtype=np.int64)
        hist = exclusions[:3]
        candidates = np.setdiff1d(np.arange(30), exclusions)
        ihists = [np.sort(gen.choice(6, size=int(gen.integers(0, 4)), replace=False)).astype(np.int64)
                  for _ in candidates]
        ranked = rank_items(1, store, kind, exclusions, 10, history=hist, item_histories=ihists)
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


class TestReportRendering:
    def test_csv_round_trips_values(self):
        split, store = _oracle_split()
        report = evaluate(store, ModelKind.CML, split, phase="test", k=10)
        rows = dict(line.split(",") for line in report_csv(report).strip().splitlines()[1:])
        assert float(rows["recall"]) == pytest.approx(report.recall)
        assert float(rows["ndcg"]) == pytest.approx(report.ndcg)
        assert int(rows["num_evaluated_users"]) == 4
        assert rows["phase"] == "test"

    def test_table_scales_by_100(self):
        split, store = _oracle_split()
        report = evaluate(store, ModelKind.CML, split, phase="test", k=10)
        table = report_table(report)
        assert "R@10" in table
        assert "100.00" in table  # recall of the oracle model
        assert "20.00" in table  # precision = 2/10
