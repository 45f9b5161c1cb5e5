"""Initialization, sparse Adam, unit-ball projection, and checkpoint IO."""
from __future__ import annotations

import hashlib
import struct
import warnings
import zlib

import numpy as np
import pytest

from cmlrec.parameters import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ITEM_REL_KEYS,
    ITEM_REL_MEMORIES,
    ITEM_VECS,
    REL_KEYS,
    REL_MEMORIES,
    USER_VECS,
    AdamState,
    CheckpointError,
    NonFiniteGradientError,
    ParameterStore,
    SparseGradients,
    adam_step,
    checkpoint_bytes,
    init_parameters,
    load_checkpoint,
    project_unit_ball,
    save_checkpoint,
)
from oracles import dense_gradients


class TestInit:
    def test_determinism(self):
        a = init_parameters(4, 6, 100, 5, seed=7)
        b = init_parameters(4, 6, 100, 5, seed=7)
        for name, arr in a.tensors().items():
            assert np.array_equal(arr, b.tensors()[name])

    def test_rows_inside_unit_ball(self):
        store = init_parameters(20, 30, 16, 4, seed=1)
        assert (np.linalg.norm(store.user_vecs, axis=1) <= 1 + 1e-12).all()
        assert (np.linalg.norm(store.item_vecs, axis=1) <= 1 + 1e-12).all()

    def test_minimal_shape(self):
        store = init_parameters(1, 1, 1, 1, seed=0)
        for arr in store.tensors().values():
            assert arr.shape == (1, 1)
            assert np.isfinite(arr).all()

    def test_scale_tracks_dimension(self):
        # unprojected key/memory entries have sd close to 1/sqrt(d)
        store = init_parameters(2, 2, 64, 400, seed=3)
        sd = store.rel_keys.std()
        assert abs(sd - 1 / 8) < 0.01

    def test_item_memory_flag(self):
        plain = init_parameters(3, 3, 4, 2, seed=0)
        full = init_parameters(3, 3, 4, 2, with_item_memory=True, seed=0)
        assert not plain.has_item_memory
        assert full.has_item_memory
        assert full.item_rel_keys.shape == (2, 4)
        assert full.item_rel_memories.shape == (2, 4)


class TestSparseGradients:
    def test_only_touched_rows_reported(self):
        store = init_parameters(5, 5, 3, 2, seed=0)
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([2]), np.ones((1, 3)))
        grads.add_rows(USER_VECS, np.array([2]), np.ones((1, 3)))
        grads.add_rows(ITEM_VECS, np.array([4]), np.full((1, 3), 2.0))
        rows, values = grads.sums()
        assert rows.tolist() == [2, store.blocks[ITEM_VECS].start + 4]
        np.testing.assert_allclose(values, [[2.0] * 3, [2.0] * 3])
        assert len(grads) == 2

    def test_scatter_add_accumulates_duplicates(self):
        store = init_parameters(4, 4, 2, 2, seed=0)
        grads = SparseGradients(store)
        rows = np.array([1, 1, 3])
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        grads.add_rows(USER_VECS, rows, vecs)
        dense = dense_gradients(grads, store)[USER_VECS]
        np.testing.assert_allclose(dense[1], [2.0, 0.0])
        np.testing.assert_allclose(dense[3], [0.0, 5.0])

    def test_repeated_rows_match_dense_scatter_reference(self):
        store = init_parameters(6, 5, 3, 2, seed=0)
        gen = np.random.default_rng(12)
        grads = SparseGradients(store)
        reference = np.zeros_like(store.user_vecs)
        for n in (7, 1, 12):
            rows = gen.integers(6, size=n)
            rows[0] = 4  # row 4 repeats in every piece
            vecs = gen.normal(size=(n, 3))
            grads.add_rows(USER_VECS, rows, vecs)
            np.add.at(reference, rows, vecs)
        dense = gen.normal(size=(6, 3))
        grads.add_dense(USER_VECS, dense)
        reference += dense
        rows, values = grads.sums()
        assert rows.tolist() == list(range(6))
        np.testing.assert_allclose(values, reference, rtol=1e-13, atol=1e-15)
        grads.add_rows(USER_VECS, np.array([5, 5]), np.ones((2, 3)))
        rows, values = grads.sums()
        assert rows.tolist() == list(range(6))
        np.testing.assert_allclose(values[5], reference[5] + 2.0, rtol=1e-13, atol=1e-15)
        assert len(grads) == 6

    def test_untouched_row_reads_zero(self):
        store = init_parameters(4, 4, 2, 2, seed=0)
        grads = SparseGradients(store)
        grads.add_rows(ITEM_VECS, np.array([3]), np.array([[1.0, 2.0]]))
        assert grads.sums()[0].tolist() == [store.blocks[ITEM_VECS].start + 3]
        dense = dense_gradients(grads, store)
        np.testing.assert_array_equal(dense[ITEM_VECS][[0, 1, 2]], np.zeros((3, 2)))
        np.testing.assert_array_equal(dense[USER_VECS], np.zeros((4, 2)))

    def test_check_finite_names_offender(self):
        store = init_parameters(4, 4, 2, 2, seed=0)
        grads = SparseGradients(store)
        grads.add_rows(REL_KEYS, np.array([1]), np.array([[np.nan, 0.0]]))
        with pytest.raises(NonFiniteGradientError) as err:
            grads.check_finite()
        assert err.value.tensor == REL_KEYS
        assert err.value.row == 1
        full = init_parameters(4, 5, 2, 3, with_item_memory=True, seed=0)
        for bad_rows, offender in (
            ([(ITEM_VECS, 0)], (ITEM_VECS, 0)),
            ([(ITEM_REL_MEMORIES, 0)], (ITEM_REL_MEMORIES, 0)),
            # two bad tensors: the first in TENSOR_ORDER is named, whatever the order of adding
            ([(REL_MEMORIES, 0), (ITEM_VECS, 4)], (ITEM_VECS, 4)),
        ):
            grads = SparseGradients(full)
            grads.add_rows(USER_VECS, np.array([0, 3]), np.ones((2, 2)))
            grads.add_dense(ITEM_REL_KEYS, np.zeros((3, 2)))
            for tensor, row in bad_rows:
                grads.add_rows(tensor, np.array([row]), np.array([[np.nan, 0.0]]))
            with pytest.raises(NonFiniteGradientError) as err:
                grads.check_finite()
            assert (err.value.tensor, err.value.row) == offender

    def test_check_finite_names_row_of_dense_piece(self):
        store = init_parameters(4, 4, 2, 3, seed=0)
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([0, 3]), np.ones((2, 2)))
        grads.add_dense(REL_MEMORIES, np.zeros((3, 2)))
        bad = np.zeros((3, 2))
        bad[2, 1] = np.nan
        grads.add_dense(REL_MEMORIES, bad)
        with pytest.raises(NonFiniteGradientError) as err:
            grads.check_finite()
        assert (err.value.tensor, err.value.row) == (REL_MEMORIES, 2)

    def test_check_finite_names_row_whose_infinities_cancel(self):
        store = init_parameters(6, 4, 2, 2, seed=0)
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([1, 4]), np.array([[np.inf, 0.0], [1.0, 1.0]]))
        grads.add_rows(USER_VECS, np.array([4, 2]), np.array([[-np.inf, 0.0], [2.0, 2.0]]))
        grads.add_rows(USER_VECS, np.array([1]), np.array([[-np.inf, 0.0]]))
        with pytest.raises(NonFiniteGradientError) as err:
            grads.check_finite()
        assert (err.value.tensor, err.value.row) == (USER_VECS, 1)

    def test_dense_pieces_sum_over_every_row(self):
        store = init_parameters(4, 4, 3, 5, seed=0)
        gen = np.random.default_rng(3)
        pieces = [gen.normal(size=(5, 3)) for _ in range(3)]
        grads = SparseGradients(store)
        for piece in pieces:
            grads.add_dense(REL_KEYS, piece)
        rows, values = grads.sums()
        assert rows.tolist() == list(range(store.blocks[REL_KEYS].start, store.blocks[REL_KEYS].stop))
        np.testing.assert_array_equal(values, (pieces[0] + pieces[1]) + pieces[2])
        assert len(grads) == 5

    def test_dense_pieces_mixed_with_rows_match_add_at_reference(self):
        store = init_parameters(4, 7, 3, 2, seed=0)
        gen = np.random.default_rng(4)
        grads = SparseGradients(store)
        reference = np.zeros_like(store.item_vecs)
        for step in range(6):
            if step % 2 == 0:
                dense = gen.normal(size=(7, 3))
                grads.add_dense(ITEM_VECS, dense)
                reference += dense
            else:
                rows = gen.integers(7, size=9)
                vecs = gen.normal(size=(9, 3))
                grads.add_rows(ITEM_VECS, rows, vecs)
                np.add.at(reference, rows, vecs)
        rows, values = grads.sums()
        assert rows.tolist() == list(range(store.blocks[ITEM_VECS].start, store.blocks[ITEM_VECS].stop))
        np.testing.assert_allclose(values, reference, rtol=1e-13, atol=1e-13)

    def test_same_pieces_give_identical_bytes(self):
        store = init_parameters(30, 40, 4, 3, seed=0)
        gen = np.random.default_rng(5)
        pieces = []
        for n in (40, 1, 25, 60):
            pieces.append((USER_VECS, gen.integers(30, size=n), gen.normal(size=(n, 4))))
            pieces.append((ITEM_VECS, gen.integers(5, size=n), gen.normal(size=(n, 4)) * 10.0 ** gen.integers(-8, 8, size=(n, 1))))
            pieces.append((REL_KEYS, None, gen.normal(size=(3, 4))))
        pieces.append((ITEM_VECS, None, gen.normal(size=(40, 4))))
        sums = []
        for _ in range(2):
            grads = SparseGradients(store)
            for tensor, rows, vecs in pieces:
                if rows is None:
                    grads.add_dense(tensor, vecs.copy())
                else:
                    grads.add_rows(tensor, rows.copy(), vecs.copy())
            sums.append([a.tobytes() for a in grads.sums()])
        assert sums[0] == sums[1]


def _dense_adam_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook dense Adam, used as the independent update oracle."""
    m = beta1 * m + (1 - beta1) * grads
    v = beta2 * v + (1 - beta2) * grads * grads
    m_hat = m / (1 - beta1**t)
    v_hat = v / (1 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_hand_computed_first_step(self):
        store = init_parameters(1, 1, 1, 1, seed=0)
        before = float(store.user_vecs[0, 0])
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([0]), np.array([[1.0]]))
        state = AdamState.for_store(store)
        adam_step(store, grads, state, lr=0.001)
        update = float(store.user_vecs[0, 0]) - before
        assert abs(update - (-0.001 / (1 + 1e-8))) < 1e-12
        assert state.step == 1

    def test_zero_gradient_rows_fixed_point(self):
        store = init_parameters(3, 3, 2, 2, seed=1)
        state = AdamState.for_store(store)
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([1]), np.zeros((1, 2)))
        before = store.user_vecs.copy()
        adam_step(store, grads, state, lr=0.01)
        adam_step(store, grads, state, lr=0.01)
        np.testing.assert_array_equal(store.user_vecs, before)

    def test_untouched_rows_and_moments_unchanged(self):
        store = init_parameters(6, 6, 4, 3, seed=2)
        state = AdamState.for_store(store)
        before = store.user_vecs.copy()
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([2]), np.ones((1, 4)))
        adam_step(store, grads, state, lr=0.01)
        touched = np.zeros(6, dtype=bool)
        touched[2] = True
        np.testing.assert_array_equal(store.user_vecs[~touched], before[~touched])
        assert np.all(state.moment1[store.blocks[USER_VECS]][~touched] == 0)
        assert not np.array_equal(store.user_vecs[2], before[2])

    def test_matches_dense_reference_when_all_rows_touched(self):
        gen = np.random.default_rng(11)
        store = init_parameters(4, 3, 5, 2, seed=4)
        state = AdamState.for_store(store)
        ref_m = {n: np.zeros_like(a) for n, a in store.tensors().items()}
        ref_v = {n: np.zeros_like(a) for n, a in store.tensors().items()}
        ref_p = {n: a.copy() for n, a in store.tensors().items()}
        for t in range(1, 6):
            grads = SparseGradients(store)
            gvals = {}
            for name, arr in store.tensors().items():
                g = gen.normal(size=arr.shape)
                gvals[name] = g
                grads.add_dense(name, g)
            adam_step(store, grads, state, lr=0.005)
            for name in ref_p:
                ref_p[name], ref_m[name], ref_v[name] = _dense_adam_reference(
                    ref_p[name], gvals[name], ref_m[name], ref_v[name], t, lr=0.005
                )
        for name, arr in store.tensors().items():
            np.testing.assert_allclose(arr, ref_p[name], rtol=1e-12, atol=1e-15)

    def test_step_counter_once_per_call(self):
        store = init_parameters(2, 2, 2, 2, seed=0)
        state = AdamState.for_store(store)
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([0]), np.ones((1, 2)))
        grads.add_rows(ITEM_VECS, np.array([1]), np.ones((1, 2)))
        adam_step(store, grads, state, lr=0.001)
        assert state.step == 1

    def test_nonfinite_gradient_aborts_before_update(self):
        store = init_parameters(3, 3, 2, 2, seed=0)
        state = AdamState.for_store(store)
        before = store.user_vecs.copy()
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([0]), np.array([[np.inf, 1.0]]))
        with pytest.raises(NonFiniteGradientError):
            adam_step(store, grads, state, lr=0.001)
        np.testing.assert_array_equal(store.user_vecs, before)
        assert state.step == 0

    def test_returns_the_sorted_rows_it_updated(self):
        store = init_parameters(5, 6, 3, 2, with_item_memory=True, seed=3)
        state = AdamState.for_store(store)
        grads = SparseGradients(store)
        grads.add_rows(ITEM_VECS, np.array([4, 1, 4]), np.ones((3, 3)))
        grads.add_dense(ITEM_REL_MEMORIES, np.ones((2, 3)))
        grads.add_rows(USER_VECS, np.array([3, 0]), np.ones((2, 3)))
        grads.add_dense(REL_KEYS, np.ones((2, 3)))
        before = store.arena.copy()
        rows = adam_step(store, grads, state, lr=0.01)
        items, keys, memories = (store.blocks[name] for name in (ITEM_VECS, REL_KEYS, ITEM_REL_MEMORIES))
        assert rows.tolist() == [0, 3, items.start + 1, items.start + 4, *range(keys.start, keys.stop),
                                 *range(memories.start, memories.stop)]
        assert rows.tolist() == np.flatnonzero((store.arena != before).any(axis=1)).tolist()

    def test_negative_lr_rejected(self):
        store = init_parameters(2, 2, 2, 2, seed=0)
        state = AdamState.for_store(store)
        grads = SparseGradients(store)
        with pytest.raises(ValueError):
            adam_step(store, grads, state, lr=-0.1)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lr_rejected_before_update(self, lr):
        store = init_parameters(4, 5, 3, 2, seed=0)
        state = AdamState.for_store(store)
        state.moment1 += 0.5
        state.moment2 += 0.25
        before = [store.arena.copy(), state.moment1.copy(), state.moment2.copy()]
        grads = SparseGradients(store)
        grads.add_rows(USER_VECS, np.array([1]), np.ones((1, 3)))
        with pytest.raises(ValueError, match="lr must be finite"):
            adam_step(store, grads, state, lr=lr)
        for a, b in zip(before, (store.arena, state.moment1, state.moment2)):
            np.testing.assert_array_equal(a, b)
        assert state.step == 0


class TestProjection:
    def _store(self):
        store = init_parameters(3, 3, 2, 2, seed=5)
        store.user_vecs[0] = [0.3, 0.4]  # norm 0.5
        store.user_vecs[1] = [1.2, 1.6]  # norm 2.0
        store.user_vecs[2] = [0.0, 0.0]
        return store

    def test_inside_ball_unchanged(self):
        store = self._store()
        project_unit_ball(store)
        np.testing.assert_allclose(store.user_vecs[0], [0.3, 0.4])

    def test_outside_row_lands_on_sphere(self):
        store = self._store()
        project_unit_ball(store)
        assert abs(np.linalg.norm(store.user_vecs[1]) - 1.0) < 1e-6
        np.testing.assert_allclose(store.user_vecs[1], [0.6, 0.8])

    def test_zero_row_fixed(self):
        store = self._store()
        project_unit_ball(store)
        np.testing.assert_array_equal(store.user_vecs[2], [0.0, 0.0])

    def test_idempotent(self):
        store = self._store()
        project_unit_ball(store)
        once = store.user_vecs.copy()
        project_unit_ball(store)
        np.testing.assert_array_equal(store.user_vecs, once)

    def test_keys_and_memories_untouched(self):
        store = self._store()
        store.rel_keys[:] = 100.0
        store.rel_memories[:] = -50.0
        project_unit_ball(store)
        assert np.all(store.rel_keys == 100.0)
        assert np.all(store.rel_memories == -50.0)

    @pytest.mark.parametrize("row", [[1e200, 1e200], [1e308, -1e308], [-1e300, 0.0], [1e154, 1e154]])
    def test_huge_rows_land_on_sphere_without_warnings(self, row):
        store = self._store()
        store.user_vecs[1] = row
        store.item_vecs[2] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            project_unit_ball(store)
            items = store.blocks[ITEM_VECS].start
            project_unit_ball(store, np.array([1, items, items + 2]))
        for vec in (store.user_vecs[1], store.item_vecs[2]):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            np.testing.assert_array_equal(np.sign(vec), np.sign(row))
        np.testing.assert_array_equal(store.user_vecs[0], [0.3, 0.4])

    def test_rows_inside_ball_keep_their_bytes(self):
        store = init_parameters(40, 30, 8, 2, seed=6)
        gen = np.random.default_rng(6)
        store.user_vecs *= gen.uniform(0.5, 2.0, size=(40, 1))
        store.item_vecs *= gen.uniform(0.5, 2.0, size=(30, 1))
        store.user_vecs[3] = 0.0
        inside_users = np.einsum("ij,ij->i", store.user_vecs, store.user_vecs) <= 1.0
        inside_items = np.einsum("ij,ij->i", store.item_vecs, store.item_vecs) <= 1.0
        assert inside_users.any() and (~inside_users).any() and inside_items.any() and (~inside_items).any()
        partial, full = store.copy(), store.copy()
        user_rows, item_rows = np.arange(0, 40, 3), np.arange(1, 30, 2)
        project_unit_ball(partial, np.concatenate((user_rows, item_rows + store.blocks[ITEM_VECS].start)))
        project_unit_ball(full)
        for projected in (partial, full):
            assert projected.user_vecs[inside_users].tobytes() == store.user_vecs[inside_users].tobytes()
            assert projected.item_vecs[inside_items].tobytes() == store.item_vecs[inside_items].tobytes()
        untouched = np.setdiff1d(np.arange(40), user_rows)
        assert partial.user_vecs[untouched].tobytes() == store.user_vecs[untouched].tobytes()
        np.testing.assert_allclose(np.linalg.norm(full.user_vecs[~inside_users], axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(full.item_vecs[~inside_items], axis=1), 1.0, rtol=1e-12)

    def test_partial_projection_touches_named_rows_only(self):
        store = self._store()
        store.item_vecs[0] = [3.0, 4.0]
        store.item_vecs[1] = [5.0, 0.0]
        project_unit_ball(store, np.array([1, store.blocks[ITEM_VECS].start]))
        assert abs(np.linalg.norm(store.user_vecs[1]) - 1.0) < 1e-6
        assert abs(np.linalg.norm(store.item_vecs[0]) - 1.0) < 1e-6
        np.testing.assert_allclose(store.item_vecs[1], [5.0, 0.0])

    def test_listed_key_rows_keep_their_bytes(self):
        store = self._store()
        store.rel_keys[1] = [3.0, 4.0]  # norm 5, listed
        store.item_vecs[0] = [3.0, 4.0]  # listed
        store.item_vecs[2] = [0.0, 6.0]  # not listed
        before = store.arena.copy()
        embeddings = np.array([1, store.blocks[ITEM_VECS].start])
        project_unit_ball(store, np.append(embeddings, store.blocks[REL_KEYS].start + 1))
        np.testing.assert_allclose(store.user_vecs[1], [0.6, 0.8])
        np.testing.assert_allclose(store.item_vecs[0], [0.6, 0.8])
        others = np.setdiff1d(np.arange(len(before)), embeddings)
        assert store.arena[others].tobytes() == before[others].tobytes()


class TestCheckpoint:
    def test_round_trip_is_exact_after_quantization(self, tmp_path):
        store = init_parameters(5, 7, 6, 3, with_item_memory=True, seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded.has_item_memory
        for name, arr in store.tensors().items():
            # payload is float32; one quantization, then stable
            np.testing.assert_array_equal(loaded.tensors()[name], arr.astype(np.float32).astype(np.float64))
        assert checkpoint_bytes(loaded) == checkpoint_bytes(store)

    def test_corrupted_payload_rejected(self, tmp_path):
        store = init_parameters(4, 4, 3, 2, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        store = init_parameters(4, 4, 3, 2, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    # Files whose sizes and CRC agree with their header, for a store that
    # init_parameters refuses to make: dim 0 leaves an empty payload.
    @pytest.mark.parametrize("dim, n_rel", [(0, 2), (3, 0)], ids=["dim-0", "relations-0"])
    def test_empty_dimensions_rejected(self, tmp_path, dim, n_rel):
        payload = np.zeros(((4 + 5 + 2 * n_rel) * dim), dtype="<f4").tobytes()
        header = CHECKPOINT_MAGIC + struct.pack("<6I", CHECKPOINT_VERSION, 4, 5, dim, n_rel, 0)
        path = tmp_path / "model.ckpt"
        path.write_bytes(header + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointError, match="must be >= 1"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("tensor, bad", [(USER_VECS, np.nan), (ITEM_REL_MEMORIES, np.inf)])
    def test_non_finite_payload_rejected_naming_tensor(self, tmp_path, tensor, bad):
        store = init_parameters(4, 5, 3, 2, with_item_memory=True, seed=0)
        store.tensors()[tensor][1, 2] = bad
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)  # the CRC covers the bad value, so only the finiteness check rejects it
        with pytest.raises(CheckpointError, match=tensor) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("with_item_memory, size, digest", [
        (False, 252, "b1e48527835462ce81da227dd500002bb7416693194e05b8e902fe9518e2cd8e"),
        (True, 332, "b98e25352b4580bdbccca0048abe412821021c60aaac514eebc95e98cfe0d8f0"),
    ])
    def test_version_1_bytes_are_pinned(self, with_item_memory, size, digest):
        store = init_parameters(3, 4, 5, 2, with_item_memory=with_item_memory, seed=0)
        for i, arr in enumerate(store.tensors().values()):
            arr[...] = np.arange(arr.size).reshape(arr.shape) / 16.0 - i
        blob = checkpoint_bytes(store)
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_deterministic_bytes(self):
        a = init_parameters(3, 3, 4, 2, seed=1)
        b = init_parameters(3, 3, 4, 2, seed=1)
        assert checkpoint_bytes(a) == checkpoint_bytes(b)

    def test_copy_is_deep(self):
        store = init_parameters(3, 3, 2, 2, seed=1)
        clone = store.copy()
        clone.user_vecs[0, 0] += 1.0
        assert store.user_vecs[0, 0] != clone.user_vecs[0, 0]
