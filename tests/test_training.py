"""Triplet sampling contracts, the training loop, and grid search."""
from __future__ import annotations

import logging
import warnings

import numpy as np
import pytest

from cmlrec import rng, training
from cmlrec.datasets import InteractionDataset, SplitDataset, item_history, split_dataset, user_history
from cmlrec.models import ModelKind, NonFiniteScoreError, TripletBatch
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


def _epoch(split: SplitDataset, gen, batch_size: int = 16) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One epoch of ``sample_triplets`` as three concatenated arrays."""
    batches = list(sample_triplets(split, gen, batch_size))
    assert all(len(b[0]) == batch_size for b in batches[:-1]) and 1 <= len(batches[-1][0]) <= batch_size
    users, pos, neg = (np.concatenate(column) for column in zip(*batches))
    return users, pos, neg


def _outside_views(split: SplitDataset, u: int, v: int) -> bool:
    return not any(view.has_pair(u, v) for view in (split.train, split.validation, split.test))


class TestSampleTriplets:
    def test_contracts_on_random_split(self):
        split = split_dataset(planted_clusters(30, 40, 4, 15, seed=3), seed=3)
        users, pos, neg = _epoch(split, rng.substream(9, rng.SAMPLING, 0))
        # each train positive exactly once
        np.testing.assert_array_equal(
            np.sort(users * split.num_items + pos), split.train.pair_array() @ (split.num_items, 1)
        )
        for u, v in zip(users.tolist(), neg.tolist()):
            assert _outside_views(split, u, v), "negative inside the user's interaction set"

    def test_order_shuffled_per_epoch(self):
        split = _block_split()
        a = np.column_stack(_epoch(split, rng.substream(1, rng.SAMPLING, 0))[:2])
        b = np.column_stack(_epoch(split, rng.substream(1, rng.SAMPLING, 1))[:2])
        assert sorted(map(tuple, a.tolist())) == sorted(map(tuple, b.tolist()))  # same positives
        assert not np.array_equal(a, b)  # different visit order

    def test_saturated_user_skipped_with_warning(self, caplog):
        # user 0 interacted with both items; user 1 with one
        train = InteractionDataset.from_pairs(2, 2, [(0, 0), (0, 1), (1, 0)], ["a", "b"], ["x", "y"])
        empty = InteractionDataset.from_pairs(2, 2, [], ["a", "b"], ["x", "y"])
        split = SplitDataset(train=train, validation=empty, test=empty, seed=0)
        with caplog.at_level(logging.WARNING, logger="cmlrec.training"):
            users, pos, neg = _epoch(split, rng.substream(0, rng.SAMPLING, 0))
        assert (users.tolist(), pos.tolist(), neg.tolist()) == ([1], [0], [1])
        assert [rec.message for rec in caplog.records if "no negative exists" in rec.message] == [
            "user 0 interacts with every item; no negative exists, skipping"
        ]

    def test_rejected_negatives_are_redrawn(self):
        # user 0 holds every item but 11 across the three views, so nearly
        # every first draw for it is rejected; user 1 holds two items
        keys = [f"u{i}" for i in range(2)], [f"v{j}" for j in range(12)]
        train = InteractionDataset.from_pairs(2, 12, [(0, v) for v in range(9)] + [(1, 0), (1, 1)], *keys)
        valid = InteractionDataset.from_pairs(2, 12, [(0, 9)], *keys)
        test = InteractionDataset.from_pairs(2, 12, [(0, 10)], *keys)
        split = SplitDataset(train=train, validation=valid, test=test, seed=0)
        for epoch in range(5):
            users, _, neg = _epoch(split, rng.substream(4, rng.SAMPLING, epoch), batch_size=4)
            assert neg[users == 0].tolist() == [11] * 9
            assert all(_outside_views(split, 1, v) for v in neg[users == 1].tolist())

    def test_empty_train_rejected(self):
        empty = InteractionDataset.from_pairs(1, 1, [], ["a"], ["x"])
        split = SplitDataset(train=empty, validation=empty, test=empty, seed=0)
        with pytest.raises(ValueError):
            list(sample_triplets(split, rng.substream(0, rng.SAMPLING, 0), 4))


class TestHistoryDraws:
    """The per-batch history draws against the one-row references in ``datasets``."""

    @staticmethod
    def _rows(ids, mask) -> list[list[int]]:
        return [row[keep].tolist() for row, keep in zip(ids, mask)]

    @staticmethod
    def _split():
        return split_dataset(planted_clusters(30, 40, 4, 15, seed=3), seed=3)

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_rows_match_reference(self, side):
        split = self._split()
        pairs = split.train.pair_array()[::3]
        if side == "user":
            neighbours, rows, exclude = split.train.user_items, pairs[:, 0], pairs[:, 1]
            draw, reference = training.user_history, user_history
        else:
            neighbours, rows, exclude = split.train.item_users, pairs[:, 1], pairs[:, 0]
            draw, reference = training.item_history, item_history
        table = training._Adjacency.of(neighbours)
        widest = max(len(neighbours[r]) for r in rows.tolist())
        ids, mask = draw(table, rows, exclude, widest, rng.substream(0, rng.HISTORY, 0))
        assert mask.shape == ids.shape == (len(rows), widest)  # trimmed to the widest row
        for r, x, got in zip(rows.tolist(), exclude.tolist(), self._rows(ids, mask)):
            assert got == reference(split, r, exclude=x, cap=widest).tolist()  # the excluded member left out
        cap = 3
        assert widest > cap + 1
        ids, mask = draw(table, rows, exclude, cap, rng.substream(0, rng.HISTORY, 1))
        assert mask.shape == ids.shape == (len(rows), cap)
        for r, x, got in zip(rows.tolist(), exclude.tolist(), self._rows(ids, mask)):
            members = reference(split, r, exclude=x, cap=widest)
            assert len(got) == min(cap, len(members)) and len(set(got)) == len(got)
            assert set(got) <= set(members.tolist())

    def test_over_cap_subsample_is_uniform(self):
        table = training._Adjacency.of([np.arange(10, dtype=np.int64)])
        gen = rng.substream(0, rng.HISTORY, 0)
        counts = np.zeros(10)
        draws = 3000
        for _ in range(draws):
            ids, mask = training.user_history(table, np.zeros(1, dtype=np.int64), np.array([4]), 3, gen)
            counts[ids[mask]] += 1
        assert counts[4] == 0  # excluded
        np.testing.assert_allclose(np.delete(counts, 4) / draws, 3 / 9, atol=0.05)

    def test_zero_cap_draws_nothing(self):
        split = self._split()
        table = training._Adjacency.of(split.train.user_items)
        pairs = split.train.pair_array()[:5]
        ids, mask = training.user_history(table, pairs[:, 0], pairs[:, 1], 0, rng.substream(0, rng.HISTORY, 0))
        assert mask.shape == (5, 1) and not mask.any()

    def test_tables_are_the_padded_train_rows(self):
        split = self._split()
        tables = training._Histories.of(split, ModelKind.HLRPP)
        for table, rows in ((tables.user_items, split.train.user_items), (tables.item_users, split.train.item_users)):
            padded = training._Adjacency.of(list(rows))
            np.testing.assert_array_equal(table.rows, padded.rows)
            np.testing.assert_array_equal(table.lengths, padded.lengths)
        tables = training._Histories.of(split, ModelKind.CML)
        assert tables.user_items is None and tables.item_users is None

    def test_sides_share_the_user_history(self):
        split = self._split()
        hp = _tiny_hp(kind=ModelKind.HLRPP, history_cap=4)
        tables = training._Histories.of(split, hp.kind)
        batch = next(training._epoch_batches(
            split, hp, tables, rng.substream(0, rng.SAMPLING, 0), rng.substream(0, rng.HISTORY, 0)))
        stacked = batch.stacked(0, len(batch))
        half = len(batch)
        np.testing.assert_array_equal(stacked.users[:half], stacked.users[half:])
        np.testing.assert_array_equal(stacked.hist[:half], stacked.hist[half:])
        np.testing.assert_array_equal(stacked.hist_mask[:half], stacked.hist_mask[half:])
        assert batch.hist.shape[1] == 4 and batch.pos_ihist.shape == batch.neg_ihist.shape
        for i, (u, v, w) in enumerate(zip(batch.users.tolist(), batch.pos.tolist(), batch.neg.tolist())):
            hist = batch.hist[i][batch.hist_mask[i]].tolist()
            assert v not in hist and set(hist) <= set(split.train.user_items[u].tolist())
            for item, ids, mask in ((v, batch.pos_ihist, batch.pos_ihist_mask), (w, batch.neg_ihist, batch.neg_ihist_mask)):
                users = ids[i][mask[i]].tolist()
                assert u not in users and set(users) <= set(split.train.item_users[item].tolist())

    @pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
    def test_batch_reads_only_the_heads_histories(self, kind):
        split = self._split()
        hp = _tiny_hp(kind=kind)
        batch = training._validation_batch(split, hp, training._Histories.of(split, kind))
        assert (batch.hist is not None) == kind.uses_history
        assert (batch.pos_ihist is not None) == (batch.neg_ihist is not None) == kind.uses_item_memory
        assert len(batch) == split.validation.num_interactions
        for u, v in zip(batch.users.tolist(), batch.neg.tolist()):
            assert _outside_views(split, u, v)


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

    # Train rows hold 8 items per user and about 8 users per item, so a cap
    # of 5 subsamples both history directions.
    @pytest.mark.parametrize("kind", list(ModelKind), ids=[k.value for k in ModelKind])
    def test_reproducible_bitwise(self, kind):
        split = _block_split()
        hp = _tiny_hp(kind=kind, max_epochs=3, lr=0.01, history_cap=5)
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
        # passes of 2 rows score one triplet each, so it is not the first pass.
        hist = np.zeros((5, 2), dtype=np.int64)
        hist[3] = [0, 2]
        hist_mask = np.zeros((5, 2), dtype=bool)
        hist_mask[3] = True
        users = np.arange(5)
        batch = TripletBatch(pos=users + 1, neg=np.full(5, 7), users=users, hist=hist, hist_mask=hist_mask)
        monkeypatch.setattr(training, "_BACKWARD_CHUNK", 2)
        with pytest.raises(NonFiniteScoreError) as err:
            training._hinge_mean(batch, ModelKind.HLR, store, margin=0.5)
        assert (err.value.index, err.value.user, err.value.item) == (3, 3, 4)
        assert "instance 3 (user 3, item 4)" in str(err.value)

    def test_non_finite_epoch_loss_is_named(self, monkeypatch):
        monkeypatch.setattr(training, "_hinge_mean", lambda *args: float("nan"))
        _, report = train(_block_split(), _tiny_hp(max_epochs=3))
        assert report.diverged and report.num_epochs == 0
        assert report.diagnostics == "aborted at epoch 0: non-finite validation loss nan"

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
