"""Analytic backward vs central finite differences for every model kind.

The numeric side differentiates the single-pair scoring path; the analytic
side is the batched backward. The two share no code beyond the parameter
store, so agreement checks the whole chain.
"""
from __future__ import annotations

import numpy as np
import pytest

from cmlrec import models
from cmlrec.models import ModelKind, backward
from oracles import batch_loss_slow, dense_gradients, fd_gradients, random_instance

KINDS = list(ModelKind)


def check_kind(kind: ModelKind, n_instances: int, seed: int, **sizes) -> None:
    gen = np.random.default_rng(seed)
    for instance in range(n_instances):
        store, batch = random_instance(kind, gen, **sizes)
        grads, loss = backward(batch, kind, store, margin=1.0)
        slow_loss = batch_loss_slow(batch, kind, store, margin=1.0)
        assert loss == pytest.approx(slow_loss, rel=1e-9), f"{kind.value} instance {instance}: loss mismatch"
        numeric = fd_gradients(batch, kind, store, margin=1.0, h=1e-4)
        analytic = dense_gradients(grads, store)
        for name in numeric:
            np.testing.assert_allclose(
                analytic[name],
                numeric[name],
                rtol=1e-3,
                atol=1e-5,
                err_msg=f"{kind.value} instance {instance} tensor {name}",
            )


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_backward_matches_finite_differences(kind):
    check_kind(kind, n_instances=20, seed=1234)


def test_loss_paths_agree_on_larger_batches():
    gen = np.random.default_rng(5)
    for kind in KINDS:
        store, batch = random_instance(kind, gen, num_users=9, num_items=14, n_triplets=25)
        _, loss = backward(batch, kind, store, margin=0.7)
        assert loss == pytest.approx(batch_loss_slow(batch, kind, store, 0.7), rel=1e-9)


@pytest.mark.parametrize("kind", [ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP], ids=["adacml", "hlr", "hlr++"])
def test_backward_matches_finite_differences_on_larger_batches(kind):
    # 25 triplets over 9 users and 14 items: rows repeat across positives,
    # negatives and both histories, so the gradient pieces of one row add up.
    # The history gradients of both halves of a stacked pass are summed
    # before they are scattered.
    check_kind(kind, n_instances=1, seed=5, num_users=9, num_items=14, n_triplets=25)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_chunked_backward_matches_one_pass(kind, monkeypatch):
    store, batch = random_instance(kind, np.random.default_rng(8), num_users=9, num_items=14, n_triplets=25)
    whole, loss = backward(batch, kind, store, margin=1.0)
    expected = dense_gradients(whole, store)
    for chunk in (1, 2):  # one triplet per pass: each half holds a single row
        monkeypatch.setattr(models, "_BACKWARD_CHUNK", chunk)
        chunked, chunked_loss = backward(batch, kind, store, margin=1.0)
        assert chunked_loss == pytest.approx(loss, rel=1e-12)
        for name, arr in dense_gradients(chunked, store).items():
            np.testing.assert_allclose(arr, expected[name], rtol=0, atol=1e-12, err_msg=f"chunk {chunk}: {name}")


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_stacked_halves_share_users_and_histories(kind):
    # The backward pass sums the two halves' gradients of these rows before
    # scattering them, which is right only while the halves share them.
    _, batch = random_instance(kind, np.random.default_rng(9), num_users=9, num_items=14, n_triplets=25)
    for start, stop in ((0, 25), (3, 11), (24, 25)):
        stacked = batch.stacked(start, stop)
        half = stop - start
        assert len(stacked.users) == 2 * half
        np.testing.assert_array_equal(stacked.users[:half], batch.users[start:stop])
        np.testing.assert_array_equal(stacked.users[half:], batch.users[start:stop])
        np.testing.assert_array_equal(stacked.hist[:half], stacked.hist[half:])
        np.testing.assert_array_equal(stacked.hist_mask[:half], stacked.hist_mask[half:])
        np.testing.assert_array_equal(stacked.items[:half], batch.pos[start:stop])
        np.testing.assert_array_equal(stacked.items[half:], batch.neg[start:stop])


def test_gradient_zero_where_hinge_inactive():
    gen = np.random.default_rng(6)
    for kind in KINDS:
        store, batch = random_instance(kind, gen)
        # margin far below any slack: every triplet ends up satisfied
        grads, loss = backward(batch, kind, store, margin=1e-12)
        if loss == 0.0:
            assert len(grads) == 0
