"""Planted-cluster generator: identity with the per-draw reference, and argument checks."""
from __future__ import annotations

import numpy as np
import pytest

from cmlrec.synthetic import planted_clusters, planted_split
from oracles import planted_clusters_loop

# (num_users, num_items, n_clusters, interactions_per_user) -> seeds: every
# shape and seed that the tests, the demos and the benchmark workloads
# generate (noise 0.1), plus the two ends of the noise range below.
SHAPES = {
    (500, 300, 10, 30): range(5),  # criterion 4; train-planted at seeds 0 and 1
    (100, 2000, 20, 30): (0, 1),  # rank-catalog
    (1000, 1000, 20, 12): (0, 1),  # cli-recommend
    (60, 40, 4, 14): (3,),  # the benchmark's tests shrink its workloads to these
    (20, 200, 4, 14): (3,),
    (80, 60, 4, 14): (3,),
    (300, 200, 8, 30): (0, 1),  # demos
    (30, 40, 4, 15): (3,),
    (80, 60, 6, 20): (5,),
    (120, 60, 6, 20): (0, 1),
    (40, 30, 5, 15): (2, 3),
    (30, 25, 5, 12): (4,),
    (25, 40, 4, 30): range(5),
    (40, 40, 4, 30): (1, 2, 3),
    (30, 24, 4, 25): (6, 7),
}
CONFIGS = [(*shape, 0.1, seed) for shape, seeds in SHAPES.items() for seed in seeds] + [
    (500, 300, 10, 30, 0.0, 0),
    (500, 300, 10, 30, 1.0, 0),
    (7, 9, 3, 50, 0.5, 11),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "-".join(map(str, c)))
def test_matches_per_draw_reference(config):
    fast, ref = planted_clusters(*config), planted_clusters_loop(*config)
    assert np.array_equal(fast.pair_array(), ref.pair_array())
    assert fast.user_keys == ref.user_keys and fast.item_keys == ref.item_keys


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(n_clusters=0, num_items=300), "n_clusters"),
        (dict(n_clusters=1, num_items=300), "n_clusters"),
        (dict(n_clusters=2, num_items=300), "n_clusters"),
        (dict(interactions_per_user=-3), "interactions_per_user"),
        (dict(num_users=-1), "num_users"),
        (dict(num_items=0), "num_items"),
    ],
)
def test_bad_arguments_name_the_argument(kwargs, name):
    args = dict(num_users=50, num_items=300, n_clusters=10, interactions_per_user=10, seed=0) | kwargs
    with pytest.raises(ValueError, match=f"^{name} must be"):
        planted_clusters(**args)


def test_no_interactions_split_into_empty_views():
    split = planted_split(num_users=6, num_items=12, n_clusters=4, interactions_per_user=0, seed=1)
    for view in (split.train, split.validation, split.test):
        assert view.num_users == 6 and view.num_interactions == 0
