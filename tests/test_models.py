"""Scoring heads: softmax properties, composition oracles, fallbacks, and
consistency between the single-pair and batched code paths."""
from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cmlrec import models
from cmlrec.datasets import _Rows
from cmlrec.models import (
    ModelKind,
    RelationContext,
    TripletBatch,
    backward,
    batch_distances,
    candidate_distances,
    catalog_distances,
    history_distances,
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
from oracles import dense_gradients

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

    @pytest.mark.parametrize("in_place", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("shape,axis", [((0, 4), 0), ((4, 0), -1), ((2, 0, 3), 1)],
                             ids=["leading", "last", "middle"])
    def test_empty_axis_gives_an_empty_result(self, shape, axis, in_place):
        logits = np.empty(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = stable_softmax(logits, axis=axis, out=logits if in_place else None)
        assert w.shape == shape
        assert w is logits if in_place else w is not logits

    @pytest.mark.parametrize("axis", [0, -1])
    def test_bits_are_the_plain_max_shift(self, axis):
        logits = np.random.default_rng(2).normal(scale=20, size=(7, 9))
        ex = np.exp(logits - logits.max(axis=axis, keepdims=True))
        expected = ex / ex.sum(axis=axis, keepdims=True)
        assert stable_softmax(logits, axis=axis).tobytes() == expected.tobytes()
        buf = logits.copy()
        assert stable_softmax(buf, axis=axis, out=buf).tobytes() == expected.tobytes()


class TestMaskedSoftmax:
    @staticmethod
    def _reference(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Softmax of one slice over its set entries, exact zeros elsewhere."""
        out = np.zeros(len(logits))
        if mask.any():
            out[mask] = np.exp(logits[mask] - logits[mask].max())
            out /= out.sum()
        return out

    @pytest.mark.parametrize("axis", [0, -1])
    def test_matches_per_slice_reference(self, axis):
        # The reduced axis is contiguous, as in a 1-D slice, so numpy sums it
        # in the same order as the reference's sum and the bits must agree.
        gen = np.random.default_rng(40)
        for width in range(1, 61):
            rows = int(gen.integers(1, 30))
            logits = gen.normal(scale=gen.uniform(0.1, 20), size=(rows, width))
            mask = gen.random((rows, width)) < gen.uniform(0.05, 1.0)
            mask[0] = False  # one fully masked slice in every case
            if axis == 0:
                logits, mask = logits.T, mask.T
            got = models._masked_softmax(logits, mask, axis=axis)
            slices = zip(logits.T, mask.T, got.T) if axis == 0 else zip(logits, mask, got)
            for row_logits, row_mask, row_got in slices:
                assert row_got.tobytes() == self._reference(row_logits, row_mask).tobytes()

    def test_fully_masked_slice_gives_zeros(self):
        logits = np.array([[1.0, -2.0, 3.0], [0.5, 7.0, -1.0]])
        mask = np.array([[False, False, False], [True, False, True]])
        got = models._masked_softmax(logits, mask)
        assert got[0].tolist() == [0.0, 0.0, 0.0]
        assert got[1].tobytes() == self._reference(logits[1], mask[1]).tobytes()
        assert models._masked_softmax(logits, np.zeros((2, 3), dtype=bool), axis=0).tolist() == [[0.0] * 3] * 2

    def test_nan_in_a_set_entry_gives_nan(self):
        logits = np.array([[np.nan, 1.0, 2.0], [np.nan, 1.0, 2.0]])
        mask = np.array([[True, True, False], [False, True, True]])
        got = models._masked_softmax(logits, mask)
        assert np.isnan(got[0]).all()
        # A NaN in an unset entry is never read.
        assert got[1].tobytes() == self._reference(logits[1], mask[1]).tobytes()


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
    def _table(user, cands, ihists, num_items):
        """The item histories ``ihists`` of ``cands`` as rows over the
        catalog; the rows of non-candidates are never read."""
        rows = [np.array([0, user], dtype=np.int64)] * num_items
        for v, h in zip(cands.tolist(), ihists):
            rows[v] = h
        return _Rows.of(rows)

    def _assert_matches_score(self, user, cands, kind, store, hist, ihists):
        table = self._table(user, cands, ihists, store.num_items)
        d = candidate_distances(user, cands, kind, store, history=hist, item_histories=table)
        ref = [score(RelationContext(user, int(v), hist, ihists[i]), kind, store).distance for i, v in enumerate(cands)]
        np.testing.assert_allclose(d, ref, rtol=1e-12, atol=1e-14)
        return d

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
        d = self._assert_matches_score(1, cands, kind, store, EMPTY, [EMPTY] * len(cands))
        if kind is not ModelKind.LRML:
            assert d.tolist() == candidate_distances(1, cands, ModelKind.CML, store).tolist()

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
        table = self._table(2, EMPTY, [], store.num_items)
        assert candidate_distances(2, EMPTY, kind, store, history=hist, item_histories=table).shape == (0,)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("budget", [1, 40])
    def test_candidate_blocks_match_score(self, kind, budget, monkeypatch):
        # The 13 candidates are read from the user's row over the 14 items.
        # Budget 1 scores one item per block; 40 with 3 slots splits the 14
        # items into round(14 * 3 * widest support set / 40) even blocks:
        # 3 blocks (5, 5, 4) for the 3 history items, 4 blocks (4, 4, 4, 2)
        # where an hlr++ item history holds 4 users, and one block of all 14
        # with an empty history; cml and lrml score the whole catalog.
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        gen = np.random.default_rng(26)
        store = init_parameters(8, 14, 5, 3, with_item_memory=True, seed=26)
        cands = np.arange(1, 14, dtype=np.int64)
        ihists = [np.sort(gen.choice(8, size=int(gen.integers(0, 5)), replace=False)).astype(np.int64)
                  for _ in cands]
        for hist in (EMPTY, np.array([0, 4, 9], dtype=np.int64)):
            self._assert_matches_score(3, cands, kind, store, hist, ihists)

    @pytest.mark.parametrize("n_relations", [3, 16])
    def test_hlrpp_wide_item_histories_across_blocks(self, n_relations, monkeypatch):
        # Item rows hold 0-12 users, so rows both narrower and wider than the
        # N slots occur. The budget splits the 13 items into
        # 13 * N * 12 (the widest row) / budget = 4 even blocks of 4
        # (4, 4, 4, 1); the second block's rows are all empty, so its item
        # side is zero.
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", 39 * n_relations)
        item_side, returned = models._item_side_relations, []

        def recording(*args):
            returned.append(item_side(*args))
            return returned[-1]

        monkeypatch.setattr(models, "_item_side_relations", recording)
        gen = np.random.default_rng(27)
        store = init_parameters(20, 13, 5, n_relations, with_item_memory=True, seed=27)
        cands = np.arange(13, dtype=np.int64)
        widths = [12, 5, 0, 9, 0, 0, 0, 0, 3, 12, 1, 7, 2]
        ihists = [np.sort(gen.choice(20, size=w, replace=False)).astype(np.int64) for w in widths]
        for hist in (EMPTY, np.array([0, 4, 9], dtype=np.int64)):
            returned.clear()
            self._assert_matches_score(3, cands, ModelKind.HLRPP, store, hist, ihists)
            # 4 blocks, the second without item histories.
            assert [r.shape for r in returned] == [(4, 5), (4, 5), (4, 5), (1, 5)]
            assert [not r.any() for r in returned] == [False, True, False, False]

    def test_hlrpp_user_just_over_the_budget_is_one_block(self, monkeypatch):
        # 273 items with 50-user item rows at N = 10 hold 136,500 key
        # weights, 1.04 budgets: one block, not a full block and a sliver.
        calls = []
        item_side = models._item_side_relations

        def counting(*args):
            calls.append(len(args[0]))
            return item_side(*args)

        monkeypatch.setattr(models, "_item_side_relations", counting)
        gen = np.random.default_rng(28)
        store = init_parameters(60, 273, 4, 10, with_item_memory=True, seed=28)
        cands = np.arange(273, dtype=np.int64)
        rows = [np.sort(gen.choice(60, size=50, replace=False)).astype(np.int64) for _ in range(273)]
        hist = np.array([1, 7, 30], dtype=np.int64)
        d = candidate_distances(5, cands, ModelKind.HLRPP, store, history=hist, item_histories=_Rows.of(rows))
        assert calls == [273]
        assert d.shape == (273,) and np.isfinite(d).all()

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("budget", [30, 2**20])  # the history heads split the 11 items into 3 blocks, or 1
    def test_subset_is_the_catalog_row_at_the_subset(self, kind, budget, monkeypatch):
        """Any candidates read the user's row over the catalog: unsorted,
        repeated or a single item, they are its entries bit for bit."""
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        gen = np.random.default_rng(29)
        store = init_parameters(6, 11, 4, 3, with_item_memory=True, seed=29)
        hist = np.array([1, 4, 8], dtype=np.int64)
        table = _Rows.of([np.sort(gen.choice(6, size=int(gen.integers(0, 4)), replace=False)) for _ in range(11)])
        row = candidate_distances(2, np.arange(11), kind, store, history=hist, item_histories=table)
        for cands in ([9, 0, 5], [3, 3, 10, 3], [7], list(range(10, -1, -1))):
            d = candidate_distances(2, np.array(cands), kind, store, history=hist, item_histories=table)
            assert d.tobytes() == row[cands].tobytes()

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
    def test_user_and_candidates_outside_the_store_rejected(self, kind):
        """A negative index would count from the end and score another user
        or item; a user or candidate past the end is refused the same way."""
        store = init_parameters(5, 8, 3, 2, with_item_memory=True, seed=0)
        hist = np.array([0, 1], dtype=np.int64)
        for user in (-1, -5, 5, 6):
            with pytest.raises(ValueError, match=rf"user {user} is outside \[0, 5\)"):
                candidate_distances(user, np.arange(8), kind, store, history=hist)
        for cands in ([-1, 0], [0, 8], [9]):
            with pytest.raises(ValueError, match=r"candidates must lie in \[0, 8\)"):
                candidate_distances(4, np.array(cands), kind, store, history=hist)

    def test_item_histories_must_align_with_candidates(self):
        """Item histories are rows over the catalog, one per item: a list
        aligned with the candidates, or a table over fewer items, is refused."""
        store = init_parameters(3, 5, 4, 2, with_item_memory=True, seed=25)
        for kind, ihists in itertools.product((ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP),
                                              ([EMPTY] * 5, _Rows.of([EMPTY] * 4))):
            with pytest.raises(ValueError, match="rows over the catalog, one for each of its 5 items"):
                candidate_distances(0, np.arange(5), kind, store, item_histories=ihists)


class TestHistoryDistances:
    """Many users ranked at once by the history heads: the memory heads
    share one table of key weights per candidate block, and every row is
    the user's own :func:`candidate_distances`, bit for bit."""

    # unsorted, user 3 twice, user 5 with an empty history
    USERS = np.array([3, 0, 6, 3, 5, 1, 2])

    @pytest.mark.parametrize("kind", [ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP], ids=lambda kind: kind.value)
    @pytest.mark.parametrize("n_relations", [1, 4])
    # 2**20 makes one candidate block for every user; at N = 4, 100 splits
    # the 18 items into 1 to 6 blocks by the user's history length, so the
    # users fall into several groups of equal blocks.
    @pytest.mark.parametrize("budget", [100, 2**20])
    def test_rows_are_the_one_user_rows(self, kind, n_relations, budget, monkeypatch):
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        gen = np.random.default_rng(50 + n_relations)
        store = init_parameters(8, 18, 5, n_relations, with_item_memory=True, seed=50 + n_relations)
        histories = [np.sort(gen.choice(18, size=int(gen.integers(2, 9)), replace=False)).astype(np.int64)
                     for _ in self.USERS]
        histories[4] = EMPTY
        table = _Rows.of([np.sort(gen.choice(8, size=int(gen.integers(0, 5)), replace=False)).astype(np.int64)
                          for _ in range(18)])
        if budget == 100 and n_relations == 4:
            widest = int(table.lengths.max()) if kind.uses_item_memory else 0
            assert len({models._block_step(18, 4, max(len(h), widest, 1)) for h in histories}) > 1
        d = history_distances(self.USERS, _Rows.of(histories), kind, store, table)
        assert d.shape == (len(self.USERS), 18)
        for i, (u, hist) in enumerate(zip(self.USERS.tolist(), histories)):
            alone = candidate_distances(u, np.arange(18), kind, store, history=hist, item_histories=table)
            assert alone.tobytes() == d[i].tobytes()
            ref = [score(RelationContext(u, v, hist, table[v] if kind.uses_item_memory else EMPTY),
                         kind, store).distance for v in range(18)]
            np.testing.assert_allclose(d[i], ref, rtol=1e-12, atol=1e-14)

    def test_rows_at_benchmark_scale(self):
        """40 users with 1-30 history items out of 100, 300 candidates,
        d = 32, N = 10: the table's products are as large as a benchmark
        block's, and a user's alone can be far smaller. One product over the
        stacked key rows of every item instead of one per item can round a
        row differently (BLAS picks its kernel by the shape)."""
        store = init_parameters(40, 300, 32, 10, seed=3)
        gen = np.random.default_rng(3)
        histories = [np.sort(gen.choice(100, int(gen.integers(1, 31)), replace=False)) for _ in range(40)]
        users, catalog = np.arange(40), np.arange(300)
        d = history_distances(users, _Rows.of(histories), ModelKind.HLR, store)
        for u, hist in zip(users.tolist(), histories):
            assert candidate_distances(u, catalog, ModelKind.HLR, store, history=hist).tobytes() == d[u].tobytes()

    def test_hlrpp_pads_and_reads_each_block_once(self, monkeypatch):
        """Four users with one candidate block: one ``padded`` call, not one per user."""
        calls = []
        padded = _Rows.padded
        monkeypatch.setattr(_Rows, "padded", lambda rows, *args: calls.append(1) or padded(rows, *args))
        store = init_parameters(6, 9, 4, 3, with_item_memory=True, seed=51)
        table = _Rows.of([np.array([v % 6, (v + 1) % 6], dtype=np.int64) for v in range(9)])
        history_distances(np.arange(4), _Rows.of([np.array([0, 2, 5])] * 4), ModelKind.HLRPP, store, table)
        assert len(calls) == 1

    # Budget 1 scores one item per block and one user per chunk; at 200 the
    # 7-item class splits the catalog into 4 blocks of 10 and is taken 2
    # users at a time, and 2**20 makes one block and one chunk of every class.
    @pytest.mark.parametrize("budget", [1, 200, 2**20])
    @pytest.mark.parametrize("subset", [False, True], ids=["catalog", "subset"])
    def test_adacml_length_classes_are_the_one_user_rows(self, budget, subset, monkeypatch):
        """``adacml`` ranks the users of one history length a chunk at a
        time, with batched products; every row is, bit for bit, the user's
        own :func:`candidate_distances`, whatever its class, chunk and
        block. ``subset`` reads the one-user rows at 25 of the 40 items."""
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", budget)
        gen = np.random.default_rng(52)
        store = init_parameters(30, 40, 2, 3, seed=52)
        lengths = [0] * 4 + [3] * 10 + [7] * 6 + [1, 2, 5, 9]
        users = gen.permutation(30)[: len(lengths)]
        users[-1] = users[0]  # one user twice, with another history
        histories = [np.sort(gen.choice(40, size=n, replace=False)).astype(np.int64) for n in lengths]
        candidates = np.sort(gen.choice(40, size=25, replace=False)) if subset else np.arange(40)
        if budget == 200:
            step = models._block_step(40, 3, 7)
            assert (-(-40 // step), budget // (7 * step)) == (4, 2)
        d = history_distances(users, _Rows.of(histories), ModelKind.ADACML, store)
        assert d.shape == (len(users), 40)
        for i, (u, hist) in enumerate(zip(users.tolist(), histories)):
            alone = candidate_distances(u, candidates, ModelKind.ADACML, store, history=hist)
            assert alone.tobytes() == d[i, candidates].tobytes()
            ref = [score(RelationContext(u, int(v), hist), ModelKind.ADACML, store).distance for v in candidates]
            np.testing.assert_allclose(d[i, candidates], ref, rtol=1e-12, atol=1e-14)

    def test_adacml_empty_histories_rank_like_cml(self):
        """With ``history_cap`` 0 every history is empty: one length class
        whose rows are the ``cml`` rows, bit for bit."""
        store = init_parameters(7, 12, 4, 2, seed=53)
        d = history_distances(self.USERS, _Rows.of([EMPTY] * len(self.USERS)), ModelKind.ADACML, store)
        assert d.tobytes() == catalog_distances(self.USERS, ModelKind.CML, store).tobytes()

    @pytest.mark.parametrize("kind", [ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP], ids=lambda kind: kind.value)
    @pytest.mark.parametrize("count", [2, 6])
    def test_one_history_per_user(self, kind, count):
        """Fewer histories than users would leave rows unwritten, and more
        would index past the users: both are refused, naming both counts."""
        store = init_parameters(6, 9, 4, 3, with_item_memory=True, seed=54)
        histories = [np.array([0, 2]), np.array([1])] + [EMPTY] * (count - 2)
        with pytest.raises(ValueError, match=f"histories has {count} entries for 4 users"):
            history_distances(np.arange(4), _Rows.of(histories), kind, store)

    @pytest.mark.parametrize("kind", [ModelKind.CML, ModelKind.LRML], ids=lambda kind: kind.value)
    def test_heads_without_history_rejected(self, kind):
        store = init_parameters(3, 4, 2, 2, seed=0)
        with pytest.raises(ValueError, match="reads no history"):
            history_distances(np.arange(3), _Rows.of([EMPTY] * 3), kind, store)


class TestCatalogDistances:
    """The one closed-form pass of the heads without a history (``cml``,
    ``lrml``) against the single-pair reference and the one-user path."""

    USERS = np.array([3, 0, 6, 3, 5, 1, 2])  # unsorted, one user twice

    @pytest.mark.parametrize("kind", [ModelKind.CML, ModelKind.LRML], ids=lambda kind: kind.value)
    @pytest.mark.parametrize("n_relations", [1, 4])
    @pytest.mark.parametrize("chunk", [1, 2, 7])  # users per chunk; 7 takes them all at once
    def test_matches_score_and_candidate_distances(self, kind, n_relations, chunk, monkeypatch):
        store = init_parameters(7, 11, 3, n_relations, seed=40 + n_relations)
        # A chunk's largest temporary, max(d, N) x items per user, holds a
        # quarter of the budget.
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", 4 * chunk * max(3, n_relations) * 11)
        d = catalog_distances(self.USERS, kind, store)
        assert d.shape == (len(self.USERS), 11)
        ref = [[score(RelationContext(int(u), v), kind, store).distance for v in range(11)] for u in self.USERS]
        np.testing.assert_allclose(d, ref, rtol=1e-12, atol=1e-14)
        gen = np.random.default_rng(chunk)
        for i, u in enumerate(self.USERS.tolist()):
            # A user's row depends on no other user of its chunk, so the
            # one-user path gives it bit for bit.
            cands = np.sort(gen.choice(11, size=int(gen.integers(1, 12)), replace=False))
            assert candidate_distances(u, cands, kind, store).tobytes() == d[i, cands].tobytes()
        monkeypatch.setattr(models, "_RANK_BLOCK_ELEMENTS", 1)
        assert catalog_distances(self.USERS, kind, store).tobytes() == d.tobytes()

    def test_cml_subtracts_then_sums_over_d(self):
        # The bits of ‖p − q‖² taken as one subtraction and a left-to-right
        # einsum per user, the form of the one-user ranking loop.
        store = init_parameters(7, 11, 5, 2, seed=43)
        d = catalog_distances(self.USERS, ModelKind.CML, store)
        for i, u in enumerate(self.USERS.tolist()):
            diff = store.user_vecs[u] - store.item_vecs
            assert d[i].tobytes() == np.einsum("cd,cd->c", diff, diff).tobytes()

    def test_lrml_chunks_are_sized_by_the_key_logits(self):
        """N = 64 slots over d = 2: one user's (N, items) key logits hold
        twice a quarter budget, so each chunk is one user (0.5 MiB of
        logits); sized by d alone, a chunk would take 16 users and 8 MiB."""
        store = init_parameters(40, 1000, 2, 64, seed=44)
        tracemalloc.start()
        try:
            catalog_distances(np.arange(40), ModelKind.LRML, store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"catalog_distances peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("kind", [ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP], ids=lambda kind: kind.value)
    def test_history_heads_rejected(self, kind):
        store = init_parameters(3, 4, 2, 2, with_item_memory=True, seed=0)
        with pytest.raises(ValueError, match="reads a history"):
            catalog_distances(np.arange(3), kind, store)


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
        grads, loss = backward(TripletBatch.from_contexts(pos, neg), ModelKind.CML, store, margin=1e-300)
        if loss == 0.0:
            assert len(grads) == 0

    def test_exactly_satisfied_pairs_have_zero_loss_and_grad(self):
        store = init_parameters(2, 2, 3, 2, seed=1)
        ctx = RelationContext(user=0, item=0)
        batch = TripletBatch.from_contexts([ctx], [RelationContext(user=0, item=0)])
        # identical pos/neg items: slack == margin > 0, so active; sanity only
        grads, loss = backward(batch, ModelKind.CML, store, margin=0.5)
        assert loss == pytest.approx(0.5)
        # pos and neg gradients cancel exactly for identical contexts
        np.testing.assert_allclose(grads.sums()[1], 0.0, atol=1e-15)

    def test_cml_single_triplet_closed_form(self):
        store = init_parameters(3, 4, 5, 2, seed=14)
        u, v, w = 1, 2, 3
        batch = TripletBatch.from_contexts([RelationContext(u, v)], [RelationContext(u, w)])
        d_pos = score(RelationContext(u, v), ModelKind.CML, store).distance
        d_neg = score(RelationContext(u, w), ModelKind.CML, store).distance
        margin = d_neg - d_pos + 1.0  # force the hinge active with slack 1
        grads, loss = backward(batch, ModelKind.CML, store, margin=margin)
        assert loss == pytest.approx(1.0)
        pu, qv, qw = store.user_vecs[u], store.item_vecs[v], store.item_vecs[w]
        dense = dense_gradients(grads, store)
        np.testing.assert_allclose(dense[USER_VECS][u], 2 * (pu - qv) - 2 * (pu - qw), atol=1e-12)
        np.testing.assert_allclose(dense[ITEM_VECS][v], -2 * (pu - qv), atol=1e-12)
        np.testing.assert_allclose(dense[ITEM_VECS][w], 2 * (pu - qw), atol=1e-12)

    def test_empty_batch_rejected(self):
        store = init_parameters(2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            backward(TripletBatch.from_contexts([], []), ModelKind.CML, store, margin=0.5)

    def test_mismatched_batch_rejected(self):
        with pytest.raises(ValueError):
            TripletBatch.from_contexts([RelationContext(0, 0)], [])

    @pytest.mark.parametrize("items", [np.zeros(3, dtype=np.int64), np.zeros((2, 4), dtype=np.int64)],
                             ids=["flat", "long"])
    def test_items_must_give_each_user_a_side(self, items):
        with pytest.raises(ValueError, match="expected \\(sides, users\\)"):
            TripletBatch(users=np.arange(3), items=items)

    def test_backward_rejects_a_one_sided_batch(self):
        store = init_parameters(3, 4, 4, 2, seed=0)
        batch = TripletBatch.from_contexts([RelationContext(0, 1), RelationContext(2, 3)])
        assert batch.items.shape == (1, 2)
        with pytest.raises(ValueError, match="two sides"):
            backward(batch, ModelKind.CML, store, margin=0.5)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_sided_batch_matches_context_list(self, kind):
        gen = np.random.default_rng(16)
        store = init_parameters(7, 9, 6, 3, with_item_memory=True, seed=16)
        contexts = [_rand_ctx(gen, 7, 9, True, True) for _ in range(10)]
        batch = TripletBatch.from_contexts(contexts)
        assert batch_distances(batch, kind, store).tobytes() == batch_distances(contexts, kind, store).tobytes()

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
        chunk = batch_distances(batch[2:9], kind, store)
        np.testing.assert_allclose(chunk, batch_distances([*pos[2:9], *neg[2:9]], kind, store), rtol=1e-12, atol=1e-14)


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
