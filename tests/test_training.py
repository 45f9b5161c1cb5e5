"""Triplet sampling contracts, the training loop, and grid search."""
from __future__ import annotations

import logging
import warnings

import numpy as np
import pytest

from cmlrec import rng, training
from cmlrec.datasets import InteractionDataset, SplitDataset, split_dataset
from cmlrec.models import ModelKind, NonFiniteScoreError, RelationContext, TripletBatch
from cmlrec.parameters import checkpoint_bytes, init_parameters
from cmlrec.synthetic import planted_clusters
from cmlrec.training import (
    Hyperparams,
    grid_cells,
    grid_search,
    sample_triplets,
    train,
)

MEMORY_KINDS = [ModelKind.LRML, ModelKind.HLR, ModelKind.HLRPP]


def _block_split(seed=0) -> SplitDataset:
    """20 users x 20 items, two complete 10x10 blocks."""
    pairs = [(u, v) for u in range(20) for v in range(20) if (u // 10) == (v // 10)]
    ds = InteractionDataset.from_pairs(
        20, 20, pairs, [f"u{i}" for i in range(20)], [f"v{j}" for j in range(20)]
    )
    return split_dataset(ds, seed=seed)


def _tiny_hp(**kw) -> Hyperparams:
    base = dict(kind=ModelKind.CML, dim=8, n_relations=3, margin=0.5, lr=0.05,
                batch_size=64, max_epochs=5, history_cap=10, seed=0)
    base.update(kw)
    return Hyperparams(**base)


class TestSampleTriplets:
    def test_contracts_on_random_split(self):
        split = split_dataset(planted_clusters(30, 40, 4, 15, seed=3), seed=3)
        gen = rng.substream(9, rng.SAMPLING, 0)
        count = 0
        for t in sample_triplets(split, gen):
            count += 1
            assert split.train.has_pair(t.user, t.pos)
            seen = split.all_user_items(t.user)
            pos = np.searchsorted(seen, t.neg)
            assert pos >= len(seen) or seen[pos] != t.neg, "negative inside the user's interaction set"
        assert count == split.train.num_interactions

    def test_order_shuffled_per_epoch(self):
        split = _block_split()
        a = [t[:2] for t in sample_triplets(split, rng.substream(1, rng.SAMPLING, 0))]
        b = [t[:2] for t in sample_triplets(split, rng.substream(1, rng.SAMPLING, 1))]
        assert sorted(a) == sorted(b)  # same positives
        assert a != b  # different visit order

    def test_saturated_user_skipped_with_warning(self, caplog):
        # user 0 interacted with both items; user 1 with one
        train = InteractionDataset.from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)], ["a", "b"], ["x", "y"])
        empty = InteractionDataset.from_pairs(2, 2, [], ["a", "b"], ["x", "y"])
        split = SplitDataset(train=train, validation=empty, test=empty, seed=0)
        with caplog.at_level(logging.WARNING, logger="cmlrec.training"):
            triplets = list(sample_triplets(split, rng.substream(0, rng.SAMPLING, 0)))
        assert len(triplets) == 1
        assert triplets[0].user == 1 and triplets[0].neg == 1
        assert any("no negative exists" in rec.message for rec in caplog.records)

    def test_empty_train_rejected(self):
        empty = InteractionDataset.from_pairs(1, 1, [], ["a"], ["x"])
        split = SplitDataset(train=empty, validation=empty, test=empty, seed=0)
        with pytest.raises(ValueError):
            list(sample_triplets(split, rng.substream(0, rng.SAMPLING, 0)))


class TestTrain:
    def test_zero_lr_freezes_parameters(self):
        split = _block_split()
        hp = _tiny_hp(lr=0.0, max_epochs=4)
        store, report = train(split, hp)
        fresh = init_parameters(20, 20, hp.dim, hp.n_relations, seed=hp.seed)
        for name, arr in store.tensors().items():
            np.testing.assert_array_equal(arr, fresh.tensors()[name])
        # validation loss is computed on a per-run fixed sample: exactly flat
        assert len(set(report.valid_losses)) == 1
        # train loss varies only by per-epoch triplet re-draws
        assert max(report.train_losses) - min(report.train_losses) < 0.2 * max(report.train_losses)

    def test_block_structure_loss_decreases(self):
        split = _block_split()
        store, report = train(split, _tiny_hp(max_epochs=31))
        assert report.train_losses[30] < report.train_losses[0]
        assert min(report.train_losses) >= 0.0

    def test_losses_nonnegative_all_kinds(self):
        split = _block_split()
        for kind in ModelKind:
            hp = _tiny_hp(kind=kind, max_epochs=2, lr=0.01)
            _, report = train(split, hp)
            assert all(x >= 0 for x in report.train_losses)
            assert all(x >= 0 for x in report.valid_losses)

    def test_best_epoch_is_first_argmin(self):
        split = _block_split()
        _, report = train(split, _tiny_hp(max_epochs=8))
        losses = np.array(report.valid_losses)
        assert report.best_epoch == int(np.argmin(losses))
        assert losses[report.best_epoch] <= losses[-1]

    def test_best_checkpoint_matches_best_epoch(self):
        # retrain with max_epochs = best_epoch + 1: same stream prefix, so the
        # snapshot at the best epoch must be bitwise identical
        split = _block_split()
        hp = _tiny_hp(max_epochs=8)
        store, report = train(split, hp)
        best = report.best_epoch
        store2, report2 = train(split, _tiny_hp(max_epochs=best + 1))
        assert report2.valid_losses == report.valid_losses[: best + 1]
        if report2.best_epoch == best:
            assert checkpoint_bytes(store2) == checkpoint_bytes(store)

    def test_projection_invariant_after_training(self):
        split = _block_split()
        for kind in (ModelKind.CML, ModelKind.HLR):
            store, _ = train(split, _tiny_hp(kind=kind, max_epochs=3, lr=0.05))
            assert np.linalg.norm(store.user_vecs, axis=1).max() <= 1 + 1e-6
            assert np.linalg.norm(store.item_vecs, axis=1).max() <= 1 + 1e-6

    def test_reproducible_bitwise(self):
        split = _block_split()
        hp = _tiny_hp(kind=ModelKind.HLR, max_epochs=3, lr=0.01)
        store_a, report_a = train(split, hp)
        store_b, report_b = train(split, hp)
        assert checkpoint_bytes(store_a) == checkpoint_bytes(store_b)
        assert report_a.train_losses == report_b.train_losses
        assert report_a.valid_losses == report_b.valid_losses
        assert report_a.best_epoch == report_b.best_epoch

    # The heads whose keys and memories are unbounded.
    @pytest.mark.parametrize("kind", MEMORY_KINDS, ids=[k.value for k in MEMORY_KINDS])
    def test_divergence_aborts_with_finite_checkpoint(self, kind):
        split = _block_split()
        hp = _tiny_hp(kind=kind, lr=1e200, max_epochs=6, batch_size=32)
        store, report = train(split, hp)
        assert report.diverged
        assert report.diagnostics is not None
        store.check_finite()

    @pytest.mark.parametrize("kind", MEMORY_KINDS, ids=[k.value for k in MEMORY_KINDS])
    def test_divergence_raises_no_runtime_warning(self, kind):
        split = _block_split()
        hp = _tiny_hp(kind=kind, lr=1e200, max_epochs=6, batch_size=32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, report = train(split, hp)
        assert report.diverged
        assert "non-finite" in report.diagnostics

    def test_validation_loss_names_non_finite_triplet(self, monkeypatch):
        store = init_parameters(6, 8, 4, 3, seed=0)
        store.rel_memories[1] = 1e200  # every relation read from it overflows
        # Only triplet 3 has a history, so only its distances read the memory;
        # chunks of 2 put it in the second chunk.
        pos = [RelationContext(u, u + 1) for u in range(5)]
        neg = [RelationContext(u, 7) for u in range(5)]
        pos[3] = RelationContext(3, 4, history=np.array([0, 2]))
        neg[3] = RelationContext(3, 7, history=np.array([0, 2]))
        monkeypatch.setattr(training, "_BACKWARD_CHUNK", 2)
        with pytest.raises(NonFiniteScoreError) as err:
            training._hinge_mean(TripletBatch(pos, neg), ModelKind.HLR, store, margin=0.5)
        assert (err.value.index, err.value.user, err.value.item) == (3, 3, 4)
        assert "instance 3 (user 3, item 4)" in str(err.value)

    def test_invalid_hyperparams_rejected(self):
        split = _block_split()
        with pytest.raises(ValueError):
            train(split, _tiny_hp(margin=0.0))
        with pytest.raises(ValueError):
            train(split, _tiny_hp(lr=-1.0))
        with pytest.raises(ValueError):
            train(split, _tiny_hp(kind=ModelKind.LRML, n_relations=0))
        for kind in ModelKind:  # init_parameters needs a memory slot for every head
            with pytest.raises(ValueError, match="n_relations must be >= 1"):
                _tiny_hp(kind=kind, n_relations=0).validate()

    def test_log_fn_called_per_epoch(self):
        split = _block_split()
        seen = []
        train(split, _tiny_hp(max_epochs=3), log_fn=lambda e, tl, vl, s: seen.append(e))
        assert seen == [0, 1, 2]


class TestGridSearch:
    def test_cell_enumeration_matches_protocol_sizes(self):
        lrs = [0.0002, 0.0005, 0.00075, 0.001]
        ns = [5, 10, 20, 50]
        margins = [0.2, 0.5, 0.75, 1.0]
        for kind in (ModelKind.LRML, ModelKind.HLR, ModelKind.HLRPP):
            assert len(grid_cells(kind, lrs, ns, margins)) == 64
        for kind in (ModelKind.CML, ModelKind.ADACML):
            assert len(grid_cells(kind, lrs, ns, margins)) == 16

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            grid_cells(ModelKind.HLR, [], [5], [0.5])
        with pytest.raises(ValueError):
            grid_cells(ModelKind.HLR, [0.001], [], [0.5])

    def test_single_point_grid_returns_it(self):
        split = _block_split()
        base = _tiny_hp(kind=ModelKind.CML, max_epochs=2)
        result = grid_search(split, base, [0.02], [3], [0.5], eval_k=5)
        assert result.best_params is not None
        assert result.best_params.lr == 0.02
        assert result.best_params.margin == 0.5
        assert len(result.leaderboard) == 1
        assert result.leaderboard[0].status == "ok"

    def test_failed_cell_does_not_kill_search(self):
        split = _block_split()
        base = _tiny_hp(kind=ModelKind.LRML, max_epochs=2, batch_size=32)
        result = grid_search(split, base, [1e200, 0.02], [3], [0.5], eval_k=5)
        assert len(result.leaderboard) == 1
        assert len(result.failed) == 1
        assert result.failed[0].params.lr == 1e200
        assert result.best_params is not None and result.best_params.lr == 0.02

    def test_leaderboard_sorted_by_ndcg(self):
        split = _block_split()
        base = _tiny_hp(kind=ModelKind.CML, max_epochs=2)
        result = grid_search(split, base, [0.001, 0.05], [3], [0.2, 0.5], eval_k=5)
        scores = [c.ndcg for c in result.leaderboard]
        assert scores == sorted(scores, reverse=True)
        assert result.best_params.lr == result.leaderboard[0].params.lr
        assert result.best_params.margin == result.leaderboard[0].params.margin
