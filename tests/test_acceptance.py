"""Go/no-go acceptance checks, one test per criterion.

Each test prints a single [PASS] line when it succeeds; pytest's own
PASSED/FAILED column is the authoritative verdict.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from cmlrec.cli import main as cli_main
from cmlrec.datasets import (
    EmptyDatasetError,
    InteractionDataset,
    RawInteractions,
    k_core_filter,
    load_interactions,
    save_split_dir,
    split_dataset,
)
from cmlrec.evaluation import (
    evaluate,
    map_at_k,
    median_popularity,
    mrr_at_k,
    ndcg_at_k,
    precision_recall_at_k,
)
from cmlrec.models import (
    ModelKind,
    RelationContext,
    TripletBatch,
    backward,
    item_item_relation,
    score,
    stable_softmax,
    triplet_margin_loss,
)
from cmlrec.parameters import init_parameters
from cmlrec.synthetic import planted_split
from cmlrec.training import Hyperparams, train
from oracles import (
    brute_ap,
    brute_mrr,
    brute_ndcg,
    brute_precision,
    brute_recall,
    dense_gradients,
)
from test_gradients import check_kind


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    for kind in ModelKind:
        check_kind(kind, n_instances=20, seed=4321)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s, budget is 60s"
    print(f"\n[PASS] criterion 1: analytic gradients match central finite differences "
          f"for all 5 models, 20 instances each ({elapsed:.1f}s)")


def test_criterion_2_metric_oracle_equivalence():
    start = time.perf_counter()
    gen = np.random.default_rng(777)
    for case in range(200):
        catalog = int(gen.integers(2, 31))
        ranked = gen.permutation(catalog)[: int(gen.integers(1, catalog + 1))].tolist()
        n_rel = int(gen.integers(1, min(5, catalog) + 1))
        relevant = set(gen.choice(catalog, size=n_rel, replace=False).tolist())
        k = int(gen.integers(1, 16))
        p, r = precision_recall_at_k(ranked, relevant, k)
        pairs = [
            (p, brute_precision(ranked, relevant, k)),
            (r, brute_recall(ranked, relevant, k)),
            (ndcg_at_k(ranked, relevant, k), brute_ndcg(ranked, relevant, k)),
            (map_at_k(ranked, relevant, k), brute_ap(ranked, relevant, k)),
            (mrr_at_k(ranked, relevant, k), brute_mrr(ranked, relevant, k)),
        ]
        for got, want in pairs:
            assert abs(got - want) < 1e-9, f"case {case}: {got} vs {want}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 2: all 5 ranking metrics match the brute-force oracle "
          f"within 1e-9 on 200 random instances ({elapsed:.1f}s)")


def test_criterion_3_structural_invariants():
    gen = np.random.default_rng(99)

    # softmax rows normalize and are shift-invariant
    for _ in range(120):
        logits = gen.normal(scale=float(gen.uniform(0.1, 1e3)), size=int(gen.integers(1, 13)))
        w = stable_softmax(logits)
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(stable_softmax(logits + 123.4), w, rtol=1e-10, atol=1e-14)

    # item-item relations are symmetric in their two items
    for case in range(120):
        store = init_parameters(3, 10, 4, 3, seed=case)
        a, b = gen.choice(10, size=2, replace=False)
        fwd = item_item_relation(int(a), int(b), store)
        rev = item_item_relation(int(b), int(a), store)
        assert np.array_equal(fwd, rev)

    # user and item rows stay inside the unit ball after every training epoch
    rows_checked = 0
    for kind in (ModelKind.CML, ModelKind.LRML, ModelKind.HLR):
        for epochs in (1, 2, 3):
            split = planted_split(num_users=40, num_items=40, n_clusters=4,
                                  interactions_per_user=30, seed=epochs)
            hp = Hyperparams(kind=kind, dim=6, n_relations=3, margin=0.5, lr=0.05,
                             batch_size=64, max_epochs=epochs, history_cap=8, seed=epochs)
            store, report = train(split, hp)
            assert not report.diverged
            for mat in (store.user_vecs, store.item_vecs):
                norms = np.linalg.norm(mat, axis=1)
                assert np.all(norms <= 1.0 + 1e-9)
                rows_checked += mat.shape[0]
    assert rows_checked >= 100

    # an empty history makes the history-attentive model score exactly like
    # the plain metric model
    for case in range(150):
        store = init_parameters(6, 9, 5, 3, seed=1000 + case)
        ctx = RelationContext(int(gen.integers(6)), int(gen.integers(9)))
        assert score(ctx, ModelKind.HLR, store).distance == score(ctx, ModelKind.CML, store).distance

    # splitting partitions each user's items into three disjoint sets
    for case in range(100):
        n_u = int(gen.integers(2, 10))
        n_v = int(gen.integers(6, 16))
        pairs = {(int(gen.integers(n_u)), int(gen.integers(n_v))) for _ in range(60)}
        ds = InteractionDataset.from_pairs(
            n_u, n_v, sorted(pairs),
            [f"u{i}" for i in range(n_u)], [f"v{j}" for j in range(n_v)])
        split = split_dataset(ds, seed=case)
        for u in range(n_u):
            parts = [set(view.user_items[u].tolist())
                     for view in (split.train, split.validation, split.test)]
            assert parts[0] | parts[1] | parts[2] == set(ds.user_items[u].tolist())
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    # k-core filtering reaches a fixed point: every surviving degree >= k
    checked = 0
    for case in range(300):
        if checked >= 100:
            break
        n_u = int(gen.integers(4, 12))
        n_v = int(gen.integers(4, 12))
        pairs = {(f"u{gen.integers(n_u)}", f"v{gen.integers(n_v)}")
                 for _ in range(int(gen.integers(10, 80)))}
        raw = RawInteractions(pairs=tuple(sorted(pairs)), threshold=0.0)
        k = int(gen.integers(1, 5))
        try:
            core = k_core_filter(raw, k=k)
        except EmptyDatasetError:
            continue
        assert all(len(core.user_items[u]) >= k for u in range(core.num_users))
        assert all(len(core.item_users[v]) >= k for v in range(core.num_items))
        checked += 1
    assert checked >= 100

    print("\n[PASS] criterion 3: structural invariants hold on randomized inputs "
          "(softmax, relation symmetry, unit ball, empty-history fallback, "
          "split partition, k-core degrees)")


def test_criterion_4_planted_structure_trend():
    start = time.perf_counter()
    diffs = []
    for seed in range(5):
        split = planted_split(num_users=500, num_items=300, n_clusters=10,
                              interactions_per_user=30, seed=seed)
        recall = {}
        for kind in (ModelKind.CML, ModelKind.HLR):
            hp = Hyperparams(kind=kind, dim=32, n_relations=10, margin=0.5, lr=0.001,
                             batch_size=50, max_epochs=30, history_cap=50, seed=seed)
            store, report = train(split, hp)
            assert not report.diverged
            recall[kind] = evaluate(store, kind, split, phase="test", k=10).recall
        diffs.append(recall[ModelKind.HLR] - recall[ModelKind.CML])
    elapsed = time.perf_counter() - start
    mean_diff = float(np.mean(diffs))
    positives = sum(d > 0 for d in diffs)
    assert elapsed < 900.0, f"trend run took {elapsed:.0f}s, budget is 900s"
    assert mean_diff > 0.0, f"mean Recall@10 difference {mean_diff:+.4f} not positive: {diffs}"
    assert positives >= 4, f"only {positives}/5 seeds favored the history model: {diffs}"
    print(f"\n[PASS] criterion 4: history-attentive model beats the plain metric model "
          f"on planted clusters, Recall@10 diff {mean_diff:+.4f}, {positives}/5 seeds positive "
          f"({elapsed:.0f}s)")


def _ml100k_path() -> str | None:
    env = os.environ.get("CMLREC_ML100K", "")
    if env and os.path.isfile(env):
        return env
    local = os.path.join(os.path.dirname(__file__), "..", "data", "ml-100k", "u.data")
    if os.path.isfile(local):
        return local
    return None


def test_criterion_5_movielens_trend():
    path = _ml100k_path()
    if path is None:
        pytest.skip("MovieLens-100k ratings not available: set CMLREC_ML100K to the "
                    "u.data file or place it at data/ml-100k/u.data")
    start = time.perf_counter()
    raw = load_interactions(path, threshold=4.0)
    core = k_core_filter(raw, k=10)
    split = split_dataset(core, seed=0)

    results = {}
    for kind in (ModelKind.CML, ModelKind.HLR):
        best_ndcg = -1.0
        best = None
        for lr in (0.0005, 0.001):
            hp = Hyperparams(kind=kind, dim=64, n_relations=20, margin=0.5, lr=lr,
                             batch_size=1000, max_epochs=20, history_cap=50, seed=0)
            store, report = train(split, hp)
            assert not report.diverged
            valid = evaluate(store, kind, split, phase="validation", k=10)
            if valid.ndcg > best_ndcg:
                best_ndcg = valid.ndcg
                best = store
        results[kind] = evaluate(best, kind, split, phase="test", k=10, verbose=True)

    # most-popular baseline over the same users and exclusions
    degrees = np.array([len(a) for a in split.train.item_users])
    order = sorted(range(split.num_items), key=lambda v: (-degrees[v], v))
    popular_lists = []
    for rec in results[ModelKind.CML].per_user:
        banned = set(split.train.user_items[rec.user].tolist()) | set(
            split.validation.user_items[rec.user].tolist())
        popular_lists.append([v for v in order if v not in banned][:10])
    popular_median = median_popularity(popular_lists, split.train)

    elapsed = time.perf_counter() - start
    hlr_ndcg = results[ModelKind.HLR].ndcg
    cml_ndcg = results[ModelKind.CML].ndcg
    assert elapsed < 7200.0
    assert hlr_ndcg >= cml_ndcg, f"NDCG@10 ordering violated: hlr {hlr_ndcg:.4f} < cml {cml_ndcg:.4f}"
    for kind, report in results.items():
        assert report.median_popularity < popular_median, (
            f"{kind.value} median popularity {report.median_popularity} not below "
            f"most-popular baseline {popular_median}")
    print(f"\n[PASS] criterion 5: MovieLens-100k trend holds: NDCG@10 hlr {hlr_ndcg:.4f} >= "
          f"cml {cml_ndcg:.4f}; recommended-item popularity below the most-popular "
          f"baseline ({popular_median:g}) for both models ({elapsed:.0f}s)")


def test_criterion_6_reproducibility(tmp_path):
    gen_split = planted_split(num_users=30, num_items=24, n_clusters=4,
                              interactions_per_user=25, seed=6)
    data = tmp_path / "data"
    save_split_dir(gen_split, str(data), k=1, threshold=1.0)
    artifacts = []
    for tag in ("first", "second"):
        run = tmp_path / f"train_{tag}"
        code = cli_main(["train", "--data", str(data), "--out", str(run),
                         "--model", "hlr++", "--dim", "8", "--n-relations", "3",
                         "--lr", "0.01", "--batch-size", "64", "--max-epochs", "3",
                         "--history-cap", "6", "--seed", "13", "--workers", "1"])
        assert code == 0
        ev = tmp_path / f"eval_{tag}"
        code = cli_main(["evaluate", "--checkpoint", str(run / "model.ckpt"),
                         "--data", str(data), "--model", "hlr++", "--k", "5",
                         "--history-cap", "6", "--workers", "1", "--out", str(ev)])
        assert code == 0
        artifacts.append({
            "ckpt": (run / "model.ckpt").read_bytes(),
            "metrics": (ev / "metrics.csv").read_bytes(),
            "report": (ev / "report.txt").read_bytes(),
        })
    for name in ("ckpt", "metrics", "report"):
        assert artifacts[0][name] == artifacts[1][name], f"{name} differs between runs"
    print("\n[PASS] criterion 6: two identically-configured runs produce byte-identical "
          "checkpoints and evaluation reports")


def test_criterion_7_loss_sanity():
    gen = np.random.default_rng(500)

    # the hinge is never negative
    for _ in range(200):
        loss = triplet_margin_loss(float(gen.uniform(0, 10)), float(gen.uniform(0, 10)),
                                   float(gen.uniform(0.01, 3)))
        assert loss >= 0.0

    # lr = 0 freezes the parameters, so the fixed validation loss is constant
    split = planted_split(num_users=30, num_items=24, n_clusters=4,
                          interactions_per_user=25, seed=7)
    hp = Hyperparams(kind=ModelKind.HLR, dim=6, n_relations=3, margin=0.5, lr=0.0,
                     batch_size=32, max_epochs=3, history_cap=6, seed=7)
    store, report = train(split, hp)
    fresh = init_parameters(split.num_users, split.num_items, hp.dim, hp.n_relations,
                            seed=hp.seed)
    for name, tensor in fresh.tensors().items():
        assert np.array_equal(store.tensors()[name], tensor), f"{name} moved under lr=0"
    assert len(set(report.valid_losses)) == 1, "validation loss drifted under lr=0"
    assert all(loss >= 0.0 for loss in report.train_losses)

    # a batch whose triplets all satisfy the margin yields exactly-zero gradients
    for kind in ModelKind:
        store = init_parameters(4, 6, 3, 2, with_item_memory=kind.uses_item_memory, seed=9)
        store.rel_memories[:] = 0.0
        if store.has_item_memory:
            store.item_rel_memories[:] = 0.0
        for u in range(4):
            axis = np.zeros(3)
            axis[u % 3] = 0.9 if u < 3 else -0.9
            store.user_vecs[u] = axis
            store.item_vecs[u] = axis       # positive item at distance 0
            store.item_vecs[u + 2] = -axis  # negative item far away
        pos = [RelationContext(u, u) for u in range(4)]
        neg = [RelationContext(u, u + 2) for u in range(4)]
        grads, loss = backward(TripletBatch.from_contexts(pos, neg), kind, store, margin=0.5)
        assert loss == 0.0
        for name, dense in dense_gradients(grads, store).items():
            assert np.all(dense == 0.0), f"{kind.value}: nonzero gradient in {name}"

    print("\n[PASS] criterion 7: hinge is nonnegative, lr=0 freezes parameters and "
          "validation loss, satisfied batches give exactly-zero gradients")
