"""Synthetic interaction generators with planted structure.

The planted-cluster generator builds users with split interests: each user
draws from 2-3 preferred item clusters plus uniform noise. A single-point
metric model has to park such a user between its clusters, while
history-adaptive translations can move toward the candidate's cluster, so
the generator separates the model families by design.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .datasets import InteractionDataset, SplitDataset, _sorted_unique, split_dataset

MAX_PREFERRED = 3  # a user prefers 2 or 3 distinct clusters


def planted_clusters(
    num_users: int = 500,
    num_items: int = 300,
    n_clusters: int = 10,
    interactions_per_user: int = 30,
    noise: float = 0.1,
    seed: int = 0,
) -> InteractionDataset:
    """Interaction set with ``n_clusters`` contiguous item blocks.

    Every user prefers 2 or 3 clusters with random mixture weights; each of
    the ``interactions_per_user`` draws picks a uniform item from a preferred
    cluster, or with probability ``noise`` a uniform item from the whole
    catalog. Duplicate draws collapse, so per-user counts land slightly
    below the nominal number.

    The cluster of a draw is picked by bisecting the user's cumulative
    weights, built once per user exactly as ``Generator.choice(n, p=weights)``
    builds them (``cumsum``, then divided by its last entry), with one
    ``random()`` double; ``choice`` draws that same double and searches the
    same CDF from the right, so the pick and the stream are those of
    ``choice``, without its per-call validation of ``p``. Every other draw
    is one scalar call per value: a vector ``integers`` call consumes the
    bit generator's buffered 32-bit halves differently, so it would not
    reproduce the stream. The pairs are kept as ``u * num_items +
    v`` codes, sorted once and deduplicated by comparing neighbours.
    """
    for name, value, low in (
        ("num_users", num_users, 0),
        ("num_items", num_items, 1),
        ("n_clusters", n_clusters, MAX_PREFERRED),
        ("interactions_per_user", interactions_per_user, 0),
    ):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if num_items % n_clusters != 0:
        raise ValueError("num_items must be divisible by n_clusters")
    if not 0 <= noise <= 1:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    gen = np.random.default_rng(seed)
    cluster_size = num_items // n_clusters
    codes: list[int] = []
    for u in range(num_users):
        n_pref = int(gen.integers(2, MAX_PREFERRED + 1))
        prefs = gen.choice(n_clusters, size=n_pref, replace=False)
        weights = gen.dirichlet(np.ones(n_pref) * 2.0)
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        base = u * num_items
        starts = (prefs * cluster_size + base).tolist()
        for _ in range(interactions_per_user):
            if gen.random() < noise:
                codes.append(base + int(gen.integers(num_items)))
            else:
                codes.append(starts[bisect_right(cdf, gen.random())] + int(gen.integers(cluster_size)))
    users, items = np.divmod(_sorted_unique(np.array(codes, dtype=np.int64)), num_items)
    user_keys = [f"u{u}" for u in range(num_users)]
    item_keys = [f"i{v}" for v in range(num_items)]
    return InteractionDataset(num_users, num_items, np.column_stack((users, items)), user_keys, item_keys)


def planted_split(
    num_users: int = 500,
    num_items: int = 300,
    n_clusters: int = 10,
    interactions_per_user: int = 30,
    noise: float = 0.1,
    seed: int = 0,
) -> SplitDataset:
    """Planted-cluster dataset already split 80/10/10 with the same seed."""
    ds = planted_clusters(num_users, num_items, n_clusters, interactions_per_user, noise, seed)
    return split_dataset(ds, seed=seed)
