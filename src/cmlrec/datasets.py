"""Implicit-feedback dataset handling.

Covers the full preprocessing pipeline: parsing raw event files, binarizing
by a value threshold, recursive k-core filtering, per-user train/validation/
test splitting, adjacency queries, and the on-disk dataset directory format.
"""
from __future__ import annotations

import logging
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod

logger = logging.getLogger(__name__)

META_FILE = "meta"
VIEW_FILES = {"train": "train.tsv", "validation": "valid.tsv", "test": "test.tsv"}
USER_KEYS_FILE = "user_keys.tsv"
ITEM_KEYS_FILE = "item_keys.tsv"


class DataError(Exception):
    """Base class for dataset construction and IO failures."""


class ParseError(DataError):
    """A raw input row could not be parsed; carries the 1-based line number
    and, when known, names the file."""

    def __init__(self, line_number: int, message: str, path: str | None = None):
        super().__init__(f"{path}: line {line_number}: {message}" if path else f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyDatasetError(DataError):
    """No interactions survived loading or filtering."""


@dataclass(frozen=True)
class RawInteractions:
    """Binarized positives: deduplicated (user key, item key) pairs.

    Rows whose value fell below ``threshold`` were dropped at load time and
    duplicate pairs collapsed, so ``pairs`` holds each positive exactly once.
    """

    pairs: tuple[tuple[str, str], ...]
    threshold: float

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Stats:
    num_users: int
    num_items: int
    num_interactions: int
    density: float
    median_interactions_per_user: int


class _Rows(Sequence[np.ndarray]):
    """Rows cut from one array at running-sum offsets of the row lengths:
    row ``i`` is the read-only slice ``values[starts[i]:ends[i]]``, and
    indexing follows list rules (negative rows count from the end)."""

    __slots__ = ("_values", "_starts", "_ends")

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        values.flags.writeable = False
        ends = np.cumsum(counts)
        self._values = values
        self._starts = (ends - counts).tolist()
        self._ends = ends.tolist()

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._values[self._starts[i] : self._ends[i]]


class InteractionDataset:
    """Bipartite user-item interaction store with dense indices.

    The interactions are one read-only int64 ``(n, 2)`` array of
    ``(user, item)`` pairs sorted by user and then by item. ``user_items[u]``
    is a slice of its item column, and ``item_users[v]`` a slice of its user
    column in item-major order, so both directions read as sorted int64
    arrays without a copy per row. The store also keeps the bijections
    between original opaque keys and dense indices. Immutable after
    construction; safe for concurrent reads.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        pairs: Iterable[tuple[int, int]],
        user_keys: Sequence[str],
        item_keys: Sequence[str],
    ):
        if len(user_keys) != num_users:
            raise ValueError("user keys do not match num_users")
        if len(item_keys) != num_items:
            raise ValueError("item keys do not match num_items")
        arr = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64).reshape(-1, 2)
        if len(arr) and ((arr.min(axis=0) < 0).any() or (arr.max(axis=0) >= (num_users, num_items)).any()):
            raise ValueError("pair index out of range")
        # Column-major, so that every user's items are one contiguous slice.
        self._pairs = np.asfortranarray(arr[np.argsort(arr @ (num_items, 1), kind="stable")])
        self._pairs.flags.writeable = False
        by_item = np.argsort(self._pairs[:, 1], kind="stable")
        self.num_users = num_users
        self.num_items = num_items
        self.user_items = _Rows(self._pairs[:, 1], np.bincount(self._pairs[:, 0], minlength=num_users))
        self.item_users = _Rows(self._pairs[by_item, 0], np.bincount(self._pairs[:, 1], minlength=num_items))
        self.user_keys = list(user_keys)
        self.item_keys = list(item_keys)
        self.user_index = {k: i for i, k in enumerate(self.user_keys)}
        self.item_index = {k: i for i, k in enumerate(self.item_keys)}

    @classmethod
    def from_pairs(cls, *args, **kwargs) -> "InteractionDataset":
        """Same as ``InteractionDataset(num_users, num_items, pairs, user_keys, item_keys)``."""
        return cls(*args, **kwargs)

    @property
    def num_interactions(self) -> int:
        return len(self._pairs)

    def has_pair(self, u: int, v: int) -> bool:
        items = self.user_items[u]
        pos = int(np.searchsorted(items, v))
        return pos < len(items) and items[pos] == v

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        return zip(self._pairs[:, 0].tolist(), self._pairs[:, 1].tolist())

    def pair_array(self) -> np.ndarray:
        """All (user, item) pairs as a read-only (n, 2) array, sorted by user then item."""
        return self._pairs


@dataclass
class SplitDataset:
    """Per-user partition of one dataset into train/validation/test views.

    The three views share the same index space and key maps. ``seed`` is the
    value the per-user shuffles were derived from.
    """

    train: InteractionDataset
    validation: InteractionDataset
    test: InteractionDataset
    seed: int
    _all_user_items: _Rows | None = field(default=None, init=False, repr=False)

    @property
    def num_users(self) -> int:
        return self.train.num_users

    @property
    def num_items(self) -> int:
        return self.train.num_items

    def all_user_items(self, u: int) -> np.ndarray:
        """Union of the user's items over all three views (sorted)."""
        if self._all_user_items is None:
            pairs = np.concatenate([v.pair_array() for v in (self.train, self.validation, self.test)])
            users, items = np.divmod(np.unique(pairs @ (self.num_items, 1)), self.num_items)
            self._all_user_items = _Rows(items, np.bincount(users, minlength=self.num_users))
        return self._all_user_items[u]


def _detect_delimiter(line: str) -> str:
    if "\t" in line:
        return "\t"
    return ","


def _looks_like_header(fields: list[str]) -> bool:
    # Only the value column is typed; a non-numeric third field on row one
    # is read as a header.
    if len(fields) >= 3:
        try:
            float(fields[2])
            return False
        except ValueError:
            return True
    return False


def load_interactions(
    source: str | os.PathLike | Iterable[str],
    threshold: float,
    *,
    delimiter: str | None = None,
    has_header: bool | None = None,
) -> RawInteractions:
    """Parse an event stream into binarized, deduplicated positives.

    Each line is ``user<sep>item[<sep>value[...]]``; rows with
    ``value >= threshold`` are kept. A missing value column counts as
    above-threshold (already-binary data). Extra columns (timestamps etc.)
    are ignored. The delimiter is auto-detected among comma and tab unless
    given, and a header row is auto-detected unless ``has_header`` is set.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    close_after = False
    if isinstance(source, (str, os.PathLike)):
        fh: Iterable[str] = open(source, "r", encoding="utf-8")
        close_after = True
    else:
        fh = source
    seen: dict[tuple[str, str], None] = {}
    try:
        lineno = 0
        first_data_line = True
        for raw_line in fh:
            lineno += 1
            line = raw_line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if delimiter is None:
                delimiter = _detect_delimiter(line)
            fields = [f.strip() for f in line.split(delimiter)]
            if first_data_line:
                first_data_line = False
                header = has_header if has_header is not None else _looks_like_header(fields)
                if header:
                    continue
            if len(fields) < 2 or not fields[0] or not fields[1]:
                raise ParseError(lineno, f"expected 'user{delimiter}item[{delimiter}value]', got {line!r}")
            if len(fields) >= 3:
                try:
                    value = float(fields[2])
                except ValueError as exc:
                    raise ParseError(lineno, f"value column is not numeric: {fields[2]!r}") from exc
            else:
                value = math.inf
            if value >= threshold:
                seen.setdefault((fields[0], fields[1]), None)
    finally:
        if close_after:
            fh.close()  # type: ignore[union-attr]
    if not seen:
        raise EmptyDatasetError(f"no interactions at or above threshold {threshold}")
    return RawInteractions(pairs=tuple(seen.keys()), threshold=float(threshold))


def k_core_filter(raw: RawInteractions, k: int) -> InteractionDataset:
    """Recursively drop users and items with degree < k, then re-index densely.

    Alternates user and item removal sweeps until a fixed point, so every
    surviving user and item keeps at least ``k`` interactions. Dense indices
    are assigned by sorted original key, which makes the mapping independent
    of input row order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    user_sets: dict[str, set[str]] = {}
    item_sets: dict[str, set[str]] = {}
    for u, v in raw.pairs:
        user_sets.setdefault(u, set()).add(v)
        item_sets.setdefault(v, set()).add(u)

    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        bad_users = [u for u, s in user_sets.items() if len(s) < k]
        for u in bad_users:
            changed = True
            for v in user_sets.pop(u):
                s = item_sets[v]
                s.discard(u)
                if not s:
                    del item_sets[v]
        bad_items = [v for v, s in item_sets.items() if len(s) < k]
        for v in bad_items:
            changed = True
            for u in item_sets.pop(v):
                s = user_sets[u]
                s.discard(v)
                if not s:
                    del user_sets[u]

    if not user_sets:
        raise EmptyDatasetError(f"k-core filter with k={k} emptied the dataset after {iterations} iterations")

    user_keys = sorted(user_sets)
    item_keys = sorted(item_sets)
    uidx = {u: i for i, u in enumerate(user_keys)}
    iidx = {v: i for i, v in enumerate(item_keys)}
    users = np.repeat([uidx[u] for u in user_sets], [len(items) for items in user_sets.values()])
    items = np.array([iidx[v] for s in user_sets.values() for v in s], dtype=np.int64)
    ds = InteractionDataset(len(user_keys), len(item_keys), np.column_stack((users, items)), user_keys, item_keys)
    assert min(len(a) for a in ds.user_items) >= k
    assert min(len(a) for a in ds.item_users) >= k
    return ds


def split_dataset(
    ds: InteractionDataset,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitDataset:
    """Partition each user's interactions into train/validation/test.

    Per user, the item list is shuffled by a generator derived from
    ``(seed, user index)`` and cut with floor rounding on the validation and
    test shares; the remainder goes to train, so train is never starved.
    Users with fewer than 3 interactions keep everything in train (counted
    and logged, never dropped). The same ``(ds, seed)`` reproduces the
    identical split.
    """
    if any(r <= 0 for r in ratios):
        raise ValueError("all ratios must be > 0")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    # Each user's shuffled items, cut per view; a view is assembled once.
    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    small_users = 0
    for u in range(ds.num_users):
        items = ds.user_items[u]
        n = len(items)
        gen = rngmod.substream(seed, rngmod.SPLIT, u)
        perm = gen.permutation(items)
        if n < 3:
            small_users += 1
            n_valid = n_test = 0
        else:
            n_valid = int(n * ratios[1])
            n_test = int(n * ratios[2])
        n_train = n - n_valid - n_test
        parts[0].append(perm[:n_train])
        parts[1].append(perm[n_train : n_train + n_valid])
        parts[2].append(perm[n_train + n_valid :])
    if small_users:
        logger.warning("%d users had fewer than 3 interactions; all their interactions went to train", small_users)

    def view(part: list[np.ndarray]) -> InteractionDataset:
        users = np.repeat(np.arange(ds.num_users, dtype=np.int64), [len(p) for p in part])
        pairs = np.column_stack((users, np.concatenate(part or [users])))  # no parts: no users
        return InteractionDataset(ds.num_users, ds.num_items, pairs, ds.user_keys, ds.item_keys)

    return SplitDataset(train=view(parts[0]), validation=view(parts[1]), test=view(parts[2]), seed=seed)


def interaction_density(num_users: int, num_items: int, num_interactions: int) -> float:
    return num_interactions / (num_users * num_items)


def dataset_stats(ds: InteractionDataset) -> Stats:
    """Summary statistics: counts, matrix density, and the lower-median
    per-user interaction count."""
    if ds.num_interactions == 0:
        raise EmptyDatasetError("cannot compute statistics of an empty dataset")
    degrees = sorted(len(a) for a in ds.user_items)
    median = degrees[(len(degrees) - 1) // 2]
    return Stats(
        num_users=ds.num_users,
        num_items=ds.num_items,
        num_interactions=ds.num_interactions,
        density=interaction_density(ds.num_users, ds.num_items, ds.num_interactions),
        median_interactions_per_user=int(median),
    )


def _capped(candidates: np.ndarray, cap: int, gen: np.random.Generator | None) -> np.ndarray:
    if cap < len(candidates):
        if gen is None:
            raise ValueError("a generator is required when the history exceeds the cap")
        candidates = gen.choice(candidates, size=cap, replace=False)
        candidates = np.sort(candidates)
    return candidates


def user_history(
    split: SplitDataset,
    u: int,
    exclude: int | None = None,
    cap: int = 50,
    gen: np.random.Generator | None = None,
) -> np.ndarray:
    """Train-set items of user ``u`` minus ``exclude``, subsampled to ``cap``.

    An empty result (the excluded item was the user's only train item) is the
    empty-history signal; model scoring falls back to plain metric distance.
    """
    items = split.train.user_items[u]
    if exclude is not None:
        pos = int(np.searchsorted(items, exclude))
        if pos < len(items) and items[pos] == exclude:
            items = np.delete(items, pos)
    return _capped(items, cap, gen)


def item_history(
    split: SplitDataset,
    v: int,
    exclude: int | None = None,
    cap: int = 50,
    gen: np.random.Generator | None = None,
) -> np.ndarray:
    """Train-set users of item ``v`` minus ``exclude``, subsampled to ``cap``."""
    users = split.train.item_users[v]
    if exclude is not None:
        pos = int(np.searchsorted(users, exclude))
        if pos < len(users) and users[pos] == exclude:
            users = np.delete(users, pos)
    return _capped(users, cap, gen)


def save_split_dir(split: SplitDataset, path: str | os.PathLike, *, k: int, threshold: float) -> None:
    """Write the dataset directory format.

    Layout: ``meta`` (key=value text), one sorted ``user<TAB>item`` file per
    view, and the two ``index<TAB>original key`` map files.
    """
    os.makedirs(path, exist_ok=True)
    views = {"train": split.train, "validation": split.validation, "test": split.test}
    with open(os.path.join(path, META_FILE), "w", encoding="utf-8") as fh:
        fh.write(f"num_users={split.num_users}\n")
        fh.write(f"num_items={split.num_items}\n")
        for name, view in views.items():
            fh.write(f"num_{name}={view.num_interactions}\n")
        fh.write(f"seed={split.seed}\n")
        fh.write(f"k_core={k}\n")
        fh.write(f"threshold={threshold}\n")
    for name, view in views.items():
        with open(os.path.join(path, VIEW_FILES[name]), "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{v}\n" for u, v in view.iter_pairs())
    with open(os.path.join(path, USER_KEYS_FILE), "w", encoding="utf-8") as fh:
        for i, key in enumerate(split.train.user_keys):
            fh.write(f"{i}\t{key}\n")
    with open(os.path.join(path, ITEM_KEYS_FILE), "w", encoding="utf-8") as fh:
        for i, key in enumerate(split.train.item_keys):
            fh.write(f"{i}\t{key}\n")


def _read_meta(path: str) -> dict[str, str]:
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            meta[key] = value
    return meta


def _read_keys(path: str, expected: int) -> list[str]:
    keys: list[str | None] = [None] * expected
    seen = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            idx_str, _, key = line.partition("\t")
            try:
                idx = int(idx_str)
            except ValueError as exc:
                raise ParseError(lineno, f"bad index in key map: {idx_str!r}", path) from exc
            if not 0 <= idx < expected:
                raise ParseError(lineno, f"key-map index {idx} out of range 0..{expected - 1}", path)
            if keys[idx] is not None:
                raise ParseError(lineno, f"key-map index {idx} is listed twice", path)
            keys[idx] = key
            seen += 1
    if seen != expected:
        raise DataError(f"{path}: expected {expected} key rows, found {seen}")
    return keys


def _read_pairs(path: str, num_users: int, num_items: int) -> np.ndarray:
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(lineno, f"expected 'user<TAB>item', got {line!r}", path)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(lineno, f"non-integer index in {line!r}", path) from exc
            if not (0 <= u < num_users and 0 <= v < num_items):
                raise ParseError(lineno, f"index out of range in {line!r}", path)
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _check_disjoint(path: str, views: dict[str, InteractionDataset], num_items: int) -> None:
    """Reject a pair listed twice in one view or present in two views."""
    pairs = np.concatenate([view.pair_array() for view in views.values()])
    keys, counts = np.unique(pairs @ (num_items, 1), return_counts=True)
    if (counts == 1).all():
        return
    u, v = divmod(int(keys[np.argmax(counts > 1)]), num_items)
    files = [os.path.join(path, VIEW_FILES[name]) for name, view in views.items() if view.has_pair(u, v)]
    if len(files) == 1:
        raise DataError(f"{files[0]}: pair ({u}, {v}) is listed more than once")
    raise DataError(f"{files[0]} and {files[1]} both hold pair ({u}, {v}); the views must be disjoint")


def load_split_dir(path: str | os.PathLike) -> tuple[SplitDataset, dict[str, str]]:
    """Load a dataset directory written by :func:`save_split_dir`.

    Raises :class:`DataError` naming the file when a line does not parse,
    a key-map index is listed twice, a view's row count differs from its
    ``meta`` count, or a pair repeats within one view or across two.
    """
    path = os.fspath(path)
    meta_path = os.path.join(path, META_FILE)
    if not os.path.exists(meta_path):
        raise DataError(f"{path}: not a dataset directory (missing '{META_FILE}')")
    meta = _read_meta(meta_path)
    try:
        num_users = int(meta["num_users"])
        num_items = int(meta["num_items"])
        counts = {name: int(meta[f"num_{name}"]) for name in VIEW_FILES}
        seed = int(meta.get("seed", "0"))
    except (KeyError, ValueError) as exc:
        raise DataError(f"{meta_path}: missing or malformed counts") from exc
    user_keys = _read_keys(os.path.join(path, USER_KEYS_FILE), num_users)
    item_keys = _read_keys(os.path.join(path, ITEM_KEYS_FILE), num_items)
    views = {}
    for name, fname in VIEW_FILES.items():
        view_path = os.path.join(path, fname)
        pairs = _read_pairs(view_path, num_users, num_items)
        if len(pairs) != counts[name]:
            raise DataError(f"{view_path}: holds {len(pairs)} pairs, but {meta_path} gives num_{name}={counts[name]}")
        views[name] = InteractionDataset(num_users, num_items, pairs, user_keys, item_keys)
    _check_disjoint(path, views, num_items)
    split = SplitDataset(train=views["train"], validation=views["validation"], test=views["test"], seed=seed)
    return split, meta
