"""Scoring heads: softmax properties, composition oracles, fallbacks, and
consistency between the single-pair and batched code paths."""
from __future__ import annotations

import math

import numpy as np
import pytest

from cmlrec import models
from cmlrec.models import (
    ModelKind,
    RelationContext,
    TripletBatch,
    backward,
    batch_distances,
    candidate_distances,
    item_item_relation,
    item_relation,
    joint_embedding,
    key_attention,
    relation_vector,
    score,
    stable_softmax,
    triplet_margin_loss,
    user_relation,
)
from cmlrec.parameters import ITEM_VECS, USER_VECS, init_parameters

EMPTY = np.empty(0, dtype=np.int64)


class TestSoftmax:
    def test_normalization_randomized(self):
        gen = np.random.default_rng(0)
        for _ in range(150):
            logits = gen.normal(scale=gen.uniform(0.1, 50), size=int(gen.integers(1, 12)))
            w = stable_softmax(logits)
            assert abs(w.sum() - 1.0) < 1e-5
            assert ((w >= 0) & (w <= 1)).all()

    def test_shift_invariance_randomized(self):
        gen = np.random.default_rng(1)
        for _ in range(150):
            logits = gen.normal(size=6)
            c = gen.normal(scale=10)
            np.testing.assert_allclose(stable_softmax(logits), stable_softmax(logits + c), atol=1e-12)

    def test_equal_logits_uniform(self):
        np.testing.assert_allclose(stable_softmax(np.full(5, 3.7)), np.full(5, 0.2))

    def test_extreme_logits_do_not_overflow(self):
        w = stable_softmax(np.array([1e300, 0.0, -1e300]))
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) < 1e-9


class TestBuildingBlocks:
    def test_joint_embedding_elementwise(self):
        np.testing.assert_array_equal(joint_embedding(np.array([1.0, 2.0]), np.array([3.0, 4.0])), [3.0, 8.0])

    def test_joint_embedding_identity_and_annihilator(self):
        q = np.array([0.3, -1.5, 2.0])
        np.testing.assert_array_equal(joint_embedding(q, np.ones(3)), q)
        np.testing.assert_array_equal(joint_embedding(q, np.zeros(3)), np.zeros(3))

    def test_joint_embedding_shape_mismatch(self):
        with pytest.raises(ValueError):
            joint_embedding(np.ones(3), np.ones(4))

    def test_key_attention_two_way(self):
        # logits [0, ln 3] -> softmax [1/4, 3/4]
        keys = np.array([[0.0, 0.0], [math.log(3.0), 0.0]])
        w = key_attention(np.array([1.0, 0.0]), keys)
        np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)

    def test_key_attention_uniform_on_equal_logits(self):
        keys = np.ones((4, 3))
        w = key_attention(np.array([0.5, 0.5, 0.5]), keys)
        np.testing.assert_allclose(w, np.full(4, 0.25))

    def test_relation_vector_selection_and_average(self):
        memories = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        np.testing.assert_array_equal(relation_vector(np.array([0.0, 0.0, 1.0]), memories), [2.0, 2.0])
        np.testing.assert_allclose(
            relation_vector(np.array([0.5, 0.5, 0.0]), memories), [0.5, 0.5]
        )

    def test_relation_vector_convex_bound(self):
        gen = np.random.default_rng(2)
        for _ in range(100):
            memories = gen.normal(size=(5, 4))
            w = stable_softmax(gen.normal(size=5))
            r = relation_vector(w, memories)
            assert np.linalg.norm(r) <= np.linalg.norm(memories, axis=1).max() + 1e-12


class TestItemItemRelation:
    def test_symmetry_bitwise(self):
        gen = np.random.default_rng(3)
        store = init_parameters(4, 9, 6, 3, seed=8)
        for _ in range(100):
            v1, v2 = gen.choice(9, size=2, replace=False)
            a = item_item_relation(int(v1), int(v2), store)
            b = item_item_relation(int(v2), int(v1), store)
            assert np.array_equal(a, b)

    def test_zero_item_gives_memory_mean(self):
        store = init_parameters(2, 3, 4, 5, seed=1)
        store.item_vecs[0] = 0.0
        r = item_item_relation(0, 1, store)
        np.testing.assert_allclose(r, store.rel_memories.mean(axis=0), atol=1e-12)

    def test_matches_manual_composition(self):
        store = init_parameters(2, 2, 2, 2, seed=0)
        store.item_vecs[0] = [1.0, 2.0]
        store.item_vecs[1] = [0.5, -1.0]
        store.rel_keys[:] = [[1.0, 0.0], [0.0, 1.0]]
        store.rel_memories[:] = [[2.0, 0.0], [0.0, 4.0]]
        s = np.array([0.5, -2.0])
        logits = np.array([0.5, -2.0])
        ex = np.exp(logits - logits.max())
        w = ex / ex.sum()
        expected = w[0] * np.array([2.0, 0.0]) + w[1] * np.array([0.0, 4.0])
        np.testing.assert_allclose(item_item_relation(0, 1, store), expected, atol=1e-12)


class TestAttentionModules:
    def test_singleton_history_returns_that_relation(self):
        store = init_parameters(3, 5, 4, 3, seed=2)
        ctx = RelationContext(user=1, item=2, history=np.array([4]))
        rel, _, alpha = user_relation(ctx, store)
        np.testing.assert_allclose(alpha, [1.0])
        np.testing.assert_allclose(rel, item_item_relation(2, 4, store), atol=1e-12)

    def test_zero_user_gives_mean_of_relations(self):
        store = init_parameters(3, 5, 4, 3, seed=2)
        store.user_vecs[0] = 0.0
        hist = np.array([1, 3, 4])
        ctx = RelationContext(user=0, item=2, history=hist)
        rel, _, alpha = user_relation(ctx, store)
        np.testing.assert_allclose(alpha, np.full(3, 1 / 3))
        mean = np.mean([item_item_relation(2, int(j), store) for j in hist], axis=0)
        np.testing.assert_allclose(rel, mean, atol=1e-12)

    def test_empty_history_zero_vector(self):
        store = init_parameters(3, 5, 4, 3, seed=2)
        rel, _, alpha = user_relation(RelationContext(user=0, item=1, history=EMPTY), store)
        assert np.all(rel == 0)
        assert len(alpha) == 0

    def test_item_side_singleton(self):
        store = init_parameters(6, 4, 4, 3, with_item_memory=True, seed=3)
        ctx = RelationContext(user=1, item=2, item_history=np.array([4]))
        rel, _, beta = item_relation(ctx, store)
        np.testing.assert_allclose(beta, [1.0])
        # relation between p_u and p_j through the item-side memory
        s = store.user_vecs[1] * store.user_vecs[4]
        w = stable_softmax(store.item_rel_keys @ s)
        np.testing.assert_allclose(rel, w @ store.item_rel_memories, atol=1e-12)

    def test_item_side_requires_item_memory(self):
        store = init_parameters(4, 4, 4, 2, seed=1)
        with pytest.raises(ValueError):
            item_relation(RelationContext(user=0, item=1, item_history=np.array([2])), store)


def _rand_ctx(gen, num_users, num_items, with_hist, with_ihist):
    u = int(gen.integers(num_users))
    v = int(gen.integers(num_items))
    hist = EMPTY
    ihist = EMPTY
    if with_hist:
        n = int(gen.integers(0, 5))
        hist = np.unique(gen.choice(num_items, size=n, replace=False)) if n else EMPTY
        hist = hist[hist != v].astype(np.int64)
    if with_ihist:
        n = int(gen.integers(0, 5))
        ihist = np.unique(gen.choice(num_users, size=n, replace=False)) if n else EMPTY
        ihist = ihist[ihist != u].astype(np.int64)
    return RelationContext(user=u, item=v, history=hist, item_history=ihist)


class TestScore:
    def test_cml_coincident_points(self):
        store = init_parameters(2, 2, 3, 2, seed=0)
        store.item_vecs[1] = store.user_vecs[0]
        assert score(RelationContext(0, 1), ModelKind.CML, store).distance == 0.0

    def test_hlr_empty_history_equals_cml_exactly(self):
        store = init_parameters(5, 5, 8, 3, seed=4)
        for u in range(5):
            for v in range(5):
                ctx = RelationContext(user=u, item=v, history=EMPTY)
                assert score(ctx, ModelKind.HLR, store).distance == score(ctx, ModelKind.CML, store).distance

    def test_hlrpp_both_empty_equals_cml_exactly(self):
        store = init_parameters(5, 5, 8, 3, with_item_memory=True, seed=4)
        ctx = RelationContext(user=2, item=3, history=EMPTY, item_history=EMPTY)
        assert score(ctx, ModelKind.HLRPP, store).distance == score(ctx, ModelKind.CML, store).distance

    def test_hlr_manual_forward_small(self):
        # fixed d=2, N=2, |history|=2 tensors, composed with plain loops
        store = init_parameters(1, 3, 2, 2, seed=0)
        store.user_vecs[0] = [0.2, -0.4]
        store.item_vecs[0] = [1.0, 0.5]   # candidate
        store.item_vecs[1] = [-0.3, 0.8]  # history
        store.item_vecs[2] = [0.6, -0.1]  # history
        store.rel_keys[:] = [[0.7, -0.2], [0.1, 0.9]]
        store.rel_memories[:] = [[0.4, 0.0], [-0.5, 0.3]]
        hist = np.array([1, 2])
        rels = []
        for j in hist:
            s = store.item_vecs[0] * store.item_vecs[j]
            logits = np.array([s @ store.rel_keys[0], s @ store.rel_keys[1]])
            ex = np.exp(logits - logits.max())
            w = ex / ex.sum()
            rels.append(w[0] * store.rel_memories[0] + w[1] * store.rel_memories[1])
        att = np.array([store.user_vecs[0] @ r for r in rels])
        ex = np.exp(att - att.max())
        alpha = ex / ex.sum()
        rbar = alpha[0] * rels[0] + alpha[1] * rels[1]
        diff = store.user_vecs[0] + rbar - store.item_vecs[0]
        expected = float(diff @ diff)
        got = score(RelationContext(0, 0, history=hist), ModelKind.HLR, store)
        assert abs(got.distance - expected) < 1e-12
        np.testing.assert_allclose(got.relation, rbar, atol=1e-12)
        np.testing.assert_allclose(got.history_weights, alpha, atol=1e-12)

    def test_lrml_composition(self):
        store = init_parameters(3, 3, 4, 2, seed=5)
        u, v = 1, 2
        s = store.user_vecs[u] * store.item_vecs[v]
        w = stable_softmax(store.rel_keys @ s)
        rel = w @ store.rel_memories
        diff = store.user_vecs[u] + rel - store.item_vecs[v]
        got = score(RelationContext(u, v), ModelKind.LRML, store)
        assert abs(got.distance - float(diff @ diff)) < 1e-12

    def test_adacml_composition(self):
        store = init_parameters(3, 6, 4, 2, seed=6)
        hist = np.array([0, 3, 5])
        u, v = 0, 2
        qh = store.item_vecs[hist]
        alpha = stable_softmax(qh @ store.item_vecs[v])
        rel = alpha @ qh
        diff = store.user_vecs[u] + rel - store.item_vecs[v]
        got = score(RelationContext(u, v, history=hist), ModelKind.ADACML, store)
        assert abs(got.distance - float(diff @ diff)) < 1e-12

    def test_breakdown_softmax_vectors_normalized(self):
        gen = np.random.default_rng(7)
        store = init_parameters(6, 8, 5, 3, with_item_memory=True, seed=7)
        for _ in range(100):
            ctx = _rand_ctx(gen, 6, 8, with_hist=True, with_ihist=True)
            br = score(ctx, ModelKind.HLRPP, store)
            if br.key_weights is not None and len(br.key_weights):
                sums = br.key_weights.sum(axis=-1)
                np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-5)
            if br.history_weights is not None and len(br.history_weights):
                assert abs(br.history_weights.sum() - 1.0) < 1e-5

    def test_attention_argmax_scale_invariance(self):
        gen = np.random.default_rng(8)
        store = init_parameters(2, 4, 4, 6, seed=9)
        for _ in range(100):
            s = gen.normal(size=4)
            c = float(gen.uniform(0.1, 9.0))
            w1 = key_attention(s, store.rel_keys)
            w2 = key_attention(c * s, store.rel_keys)
            assert int(np.argmax(w1)) == int(np.argmax(w2))

    def test_distance_nonnegative_randomized(self):
        gen = np.random.default_rng(9)
        store = init_parameters(6, 8, 5, 3, with_item_memory=True, seed=10)
        for kind in ModelKind:
            for _ in range(30):
                ctx = _rand_ctx(gen, 6, 8, kind.uses_history, kind.uses_item_memory)
                assert score(ctx, kind, store).distance >= 0.0


class TestTripletLoss:
    def test_examples(self):
        assert triplet_margin_loss(0.5, 1.0, 0.5) == 0.0
        assert triplet_margin_loss(1.0, 0.5, 0.5) == 1.0
        assert triplet_margin_loss(0.0, 2.0, 0.5) == 0.0

    def test_nonnegative_randomized(self):
        gen = np.random.default_rng(10)
        for _ in range(200):
            assert triplet_margin_loss(gen.uniform(0, 4), gen.uniform(0, 4), gen.uniform(0.01, 2)) >= 0


class TestBatchedConsistency:
    def test_batch_distances_match_single_pair_scores(self):
        gen = np.random.default_rng(11)
        store = init_parameters(7, 9, 6, 3, with_item_memory=True, seed=11)
        for kind in ModelKind:
            contexts = [_rand_ctx(gen, 7, 9, kind.uses_history, kind.uses_item_memory) for _ in range(40)]
            batched = batch_distances(contexts, kind, store)
            singles = np.array([score(c, kind, store).distance for c in contexts])
            np.testing.assert_allclose(batched, singles, rtol=1e-10, atol=1e-12)

    def test_candidate_distances_match_scores(self):
        gen = np.random.default_rng(12)
        store = init_parameters(5, 12, 6, 3, seed=12)
        hist = np.array([0, 4, 7])
        cands = np.arange(12, dtype=np.int64)
        d = candidate_distances(2, cands, ModelKind.HLR, store, history=hist)
        for i, v in enumerate(cands):
            ctx = RelationContext(user=2, item=int(v), history=hist)
            assert abs(d[i] - score(ctx, ModelKind.HLR, store).distance) < 1e-10

    def test_empty_context_list(self):
        store = init_parameters(2, 2, 2, 2, seed=0)
        assert len(batch_distances([], ModelKind.CML, store)) == 0

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_mixed_length_and_all_empty_histories(self, kind):
        store = init_parameters(6, 9, 5, 3, with_item_memory=True, seed=27)
        lists = [[], [2], [0, 3, 6, 8], [], [1, 4]]
        padded, mask = models._pad([np.array(h, dtype=np.int64) for h in lists])
        assert padded.tolist() == [[0, 0, 0, 0], [2, 0, 0, 0], [0, 3, 6, 8], [0, 0, 0, 0], [1, 4, 0, 0]]
        assert mask.sum(axis=1).tolist() == [0, 1, 4, 0, 2]
        flat = models._Adjacency.flat(np.array([2, 0, 3, 6, 8, 1, 4]), np.array([0, 1, 4, 0, 2]))
        assert flat.rows.tolist() == padded.tolist() and flat.lengths.tolist() == [0, 1, 4, 0, 2]
        assert models._Adjacency.flat(EMPTY, np.zeros(3, dtype=np.int64)).rows.shape == (3, 1)
        mixed = [RelationContext(u, 7 - u, np.array(h, dtype=np.int64), np.array(h[:2], dtype=np.int64))
                 for u, h in enumerate(lists)]
        singles = [score(c, kind, store).distance for c in mixed]
        np.testing.assert_allclose(batch_distances(mixed, kind, store), singles, rtol=1e-12, atol=1e-14)
        empty = [RelationContext(c.user, c.item) for c in mixed]
        d = batch_distances(empty, kind, store)
        np.testing.assert_allclose(d, [score(c, kind, store).distance for c in empty], rtol=1e-12, atol=1e-14)
        if kind is not ModelKind.LRML:
            assert d.tolist() == batch_distances(empty, ModelKind.CML, store).tolist()


class TestCandidateDistances:
    """The closed-form ranking loop of every head against the single-pair reference."""

    @staticmethod
    def _assert_matches_score(user, cands, kind, store, hist, ihists):
        d = candidate_distances(user, cands, kind, store, history=hist, item_histories=ihists)
        ref = [
            score(RelationContext(user, int(v), hist, ihists[i] if ihists is not None else EMPTY), kind, store).distance
            for i, v in enumerate(cands)
        ]
        np.testing.assert_allclose(d, ref, rtol=1e-12, atol=1e-14)
        if ihists is not None:
            # The same histories as a table over the catalog, whose rows of
            # non-candidates are never read, score bit for bit alike.
            rows = [np.array([0, user], dtype=np.int64)] * store.num_items
            for v, h in zip(cands.tolist(), ihists):
                rows[v] = h
            table = models._Adjacency.of(rows)
            assert candidate_distances(user, cands, kind, store, history=hist, item_histories=table).tobytes() == d.tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n_relations", [1, 4])
    def test_matches_score_randomized(self, kind, n_relations):
        gen = np.random.default_rng(21 + n_relations)
        store = init_parameters(8, 14, 5, n_relations, with_item_memory=True, seed=n_relations)
        for _ in range(20):
            cands = np.sort(gen.choice(14, size=int(gen.integers(1, 15)), replace=False)).astype(np.int64)
            hist = np.sort(gen.choice(14, size=int(gen.integers(0, 7)), replace=False)).astype(np.int64)
            ihists = [np.sort(gen.choice(8, size=int(gen.integers(0, 5)), replace=False)).astype(np.int64)
                      for _ in cands]
            self._assert_matches_score(int(gen.integers(8)), cands, kind, store, hist, ihists)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_empty_histories_fall_back_to_cml(self, kind):
        store = init_parameters(4, 9, 5, 3, with_item_memory=True, seed=22)
        cands = np.arange(9, dtype=np.int64)
        ihists = [EMPTY] * len(cands)
        d = candidate_distances(1, cands, kind, store, history=EMPTY, item_histories=ihists)
        if kind is not ModelKind.LRML:
            assert d.tolist() == candidate_distances(1, cands, ModelKind.CML, store).tolist()
        self._assert_matches_score(1, cands, kind, store, EMPTY, ihists)

    @pytest.mark.parametrize("hist", [EMPTY, np.array([0, 5], dtype=np.int64)])
    def test_hlrpp_mixed_item_history_lengths(self, hist):
        store = init_parameters(9, 7, 4, 3, with_item_memory=True, seed=23)
        cands = np.array([1, 2, 3, 4, 6], dtype=np.int64)
        ihists = [np.array(a, dtype=np.int64) for a in ([], [3], [], [0, 2, 5, 7, 8], [1, 4])]
        self._assert_matches_score(6, cands, ModelKind.HLRPP, store, hist, ihists)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_single_slot_memory_and_single_candidate(self, kind):
        store = init_parameters(3, 5, 4, 1, with_item_memory=True, seed=24)
        hist = np.array([0, 2], dtype=np.int64)
        self._assert_matches_score(2, np.array([3], dtype=np.int64), kind, store, hist, [np.array([0, 1])])
        assert candidate_distances(2, EMPTY, kind, store, history=hist, item_histories=[]).shape == (0,)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("budget", [1, 40])
    def test_candidate_blocks_match_score(self, kind, budget, monkeypatch):
        # budget 1 scores one candidate per block; 40 with 3 slots gives blocks of
        # 13 // (widest support set): 4 for the 3 history items, 3 where an hlr++
        # item history holds 4 users, and all 13 candidates in one block with no
        # support set (cml, lrml, an empty history).
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        gen = np.random.default_rng(26)
        store = init_parameters(8, 14, 5, 3, with_item_memory=True, seed=26)
        cands = np.arange(1, 14, dtype=np.int64)
        ihists = [np.sort(gen.choice(8, size=int(gen.integers(0, 5)), replace=False)).astype(np.int64)
                  for _ in cands]
        for hist in (EMPTY, np.array([0, 4, 9], dtype=np.int64)):
            self._assert_matches_score(3, cands, kind, store, hist, ihists)

    def test_item_histories_must_align_with_candidates(self):
        store = init_parameters(3, 5, 4, 2, with_item_memory=True, seed=25)
        with pytest.raises(ValueError, match="candidates"):
            candidate_distances(0, np.arange(5), ModelKind.HLRPP, store, item_histories=[EMPTY] * 4)


class TestBackwardBasics:
    def test_satisfied_batch_zero_gradients(self):
        store = init_parameters(4, 6, 4, 2, seed=13)
        pos, neg = [], []
        gen = np.random.default_rng(13)
        for _ in range(20):
            ctx_p = _rand_ctx(gen, 4, 6, False, False)
            ctx_n = RelationContext(user=ctx_p.user, item=(ctx_p.item + 1) % 6)
            pos.append(ctx_p)
            neg.append(ctx_n)
        # margin so small every triplet is satisfied by construction:
        # distances are bounded by (1+1)^2 = 4, so d_pos - d_neg >= -4
        grads, loss = backward(TripletBatch(pos, neg), ModelKind.CML, store, margin=1e-300)
        if loss == 0.0:
            assert len(grads) == 0

    def test_exactly_satisfied_pairs_have_zero_loss_and_grad(self):
        store = init_parameters(2, 2, 3, 2, seed=1)
        ctx = RelationContext(user=0, item=0)
        batch = TripletBatch([ctx], [RelationContext(user=0, item=0)])
        # identical pos/neg items: slack == margin > 0, so active; sanity only
        grads, loss = backward(batch, ModelKind.CML, store, margin=0.5)
        assert loss == pytest.approx(0.5)
        # pos and neg gradients cancel exactly for identical contexts
        for name in grads.tensors():
            for row in grads.rows(name):
                np.testing.assert_allclose(grads.vec(name, int(row)), 0.0, atol=1e-15)

    def test_cml_single_triplet_closed_form(self):
        store = init_parameters(3, 4, 5, 2, seed=14)
        u, v, w = 1, 2, 3
        batch = TripletBatch([RelationContext(u, v)], [RelationContext(u, w)])
        d_pos = score(RelationContext(u, v), ModelKind.CML, store).distance
        d_neg = score(RelationContext(u, w), ModelKind.CML, store).distance
        margin = d_neg - d_pos + 1.0  # force the hinge active with slack 1
        grads, loss = backward(batch, ModelKind.CML, store, margin=margin)
        assert loss == pytest.approx(1.0)
        pu, qv, qw = store.user_vecs[u], store.item_vecs[v], store.item_vecs[w]
        np.testing.assert_allclose(grads.vec(USER_VECS, u), 2 * (pu - qv) - 2 * (pu - qw), atol=1e-12)
        np.testing.assert_allclose(grads.vec(ITEM_VECS, v), -2 * (pu - qv), atol=1e-12)
        np.testing.assert_allclose(grads.vec(ITEM_VECS, w), 2 * (pu - qw), atol=1e-12)

    def test_empty_batch_rejected(self):
        store = init_parameters(2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            backward(TripletBatch([], []), ModelKind.CML, store, margin=0.5)

    def test_mismatched_batch_rejected(self):
        with pytest.raises(ValueError):
            TripletBatch([RelationContext(0, 0)], [])

    def test_contexts_must_share_user_and_history(self):
        with pytest.raises(ValueError, match="share"):
            TripletBatch.from_contexts([RelationContext(0, 1)], [RelationContext(1, 2)])
        with pytest.raises(ValueError, match="share"):
            TripletBatch.from_contexts([RelationContext(0, 1, np.array([2]))], [RelationContext(0, 3)])

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_stacked_batch_matches_contexts(self, kind):
        gen = np.random.default_rng(15)
        store = init_parameters(7, 9, 6, 3, with_item_memory=True, seed=15)
        pos = [_rand_ctx(gen, 7, 9, True, True) for _ in range(12)]
        neg = [RelationContext(c.user, (c.item + 1) % 9, c.history, _rand_ctx(gen, 7, 9, False, True).item_history)
               for c in pos]
        batch = TripletBatch.from_contexts(pos, neg)
        assert batch.users.tolist() == [c.user for c in pos]
        stacked = batch_distances(batch.stacked(2, 9), kind, store)
        np.testing.assert_allclose(stacked, batch_distances([*pos[2:9], *neg[2:9]], kind, store), rtol=1e-12, atol=1e-14)


class TestModelKind:
    def test_parse_aliases(self):
        assert ModelKind.parse("CML") is ModelKind.CML
        assert ModelKind.parse("hlr++") is ModelKind.HLRPP
        assert ModelKind.parse("HLR-PP") is ModelKind.HLRPP
        assert ModelKind.parse("AdaCML") is ModelKind.ADACML

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            ModelKind.parse("transcf")

    def test_capability_flags(self):
        assert not ModelKind.CML.uses_memory and not ModelKind.CML.uses_history
        assert ModelKind.LRML.uses_memory and not ModelKind.LRML.uses_history
        assert not ModelKind.ADACML.uses_memory and ModelKind.ADACML.uses_history
        assert ModelKind.HLR.uses_memory and ModelKind.HLR.uses_history
        assert ModelKind.HLRPP.uses_item_memory
