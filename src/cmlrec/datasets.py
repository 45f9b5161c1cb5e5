"""Implicit-feedback dataset handling.

Covers the full preprocessing pipeline: parsing raw event files, binarizing
by a value threshold, recursive k-core filtering, per-user train/validation/
test splitting, adjacency queries, and the on-disk dataset directory format.
"""
from __future__ import annotations

import functools
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

_EMPTY = np.empty(0, dtype=np.int64)


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


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)`` of 1-d integers by a sort and a neighbour mask;
    on int64, ``np.unique`` takes a hash path many times slower."""
    ordered = np.sort(codes)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class _Rows(Sequence[np.ndarray]):
    """Index lists cut from one array at running-sum offsets of the row
    lengths: row ``i`` is the read-only slice ``values[starts[i]:ends[i]]``,
    and indexing follows list rules (negative rows count from the end).
    ``values``, ``lengths`` and ``starts`` are the read-only arrays the rows
    are cut from and at, for code that handles many rows at once; every
    zero-padded history the heads read comes from :meth:`padded`. The
    Python offset lists behind row reads are built on the first one, in one
    assignment, so readers that race build equal lists."""

    __slots__ = ("values", "lengths", "starts", "_bounds")

    def __init__(self, values: np.ndarray, counts: np.ndarray):
        self.values = values
        self.lengths = counts
        self.starts = np.cumsum(counts) - counts
        for array in (values, counts, self.starts):
            array.flags.writeable = False
        self._bounds: tuple[list[int], list[int]] | None = None

    @classmethod
    def of(cls, rows: Sequence[np.ndarray]) -> "_Rows":
        """The rows of a list of index arrays, copied into one array."""
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        return cls(np.concatenate([_EMPTY, *rows]), lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> np.ndarray:
        if self._bounds is None:
            self._bounds = (self.starts.tolist(), (self.starts + self.lengths).tolist())
        starts, ends = self._bounds
        return self.values[starts[i] : ends[i]]

    def take(self, rows: np.ndarray | Sequence[int]) -> "_Rows":
        """Rows ``rows``, in that order, as rows of their own: one gather,
        with no loop over rows."""
        lengths = self.lengths[rows]
        offsets = np.repeat(self.starts[rows] - (np.cumsum(lengths) - lengths), lengths)
        return _Rows(self.values[offsets + np.arange(len(offsets))], lengths)

    def padded(self, rows: np.ndarray | slice | None = None, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``rows`` (all rows by default) as a zero-padded (R, W) int64
        array and its mask: row ``r`` holds its list in its first slots, one
        gather with no loop over rows. ``width`` defaults to the widest of
        the rows, and is at least 1; a row wider than ``width`` keeps its
        first ``width`` entries. Both arrays are transposes of contiguous
        (W, R) arrays: the slots-by-rows layout makes the broadcasts run
        along the rows, and ranking's ``hlr++`` item side reads the mask in
        it, for a softmax over the slots on the leading axis."""
        lengths, starts = (self.lengths, self.starts) if rows is None else (self.lengths[rows], self.starts[rows])
        if width is None:
            width = int(lengths.max(initial=0))
        slots = np.arange(max(width, 1))[:, None]
        mask = slots < lengths
        # A slot past its row's end reads a neighbour's entry, or is clipped to the last one, and is masked.
        ids = self.values.take(slots + starts, mode="clip") if len(self.values) else np.zeros(mask.shape, np.int64)
        ids *= mask
        return ids.T, mask.T


class InteractionDataset:
    """Bipartite user-item interaction store with dense indices.

    The interactions are one read-only int64 ``(n, 2)`` array of
    ``(user, item)`` pairs sorted by user and then by item. ``user_items[u]``
    is a slice of its item column, and ``item_users[v]`` a slice of its user
    column in item-major order, so both directions read as sorted int64
    arrays without a copy per row. The store also keeps the bijections
    between original opaque keys and dense indices; the key-to-index dicts
    are built on first use. Immutable after construction; safe for
    concurrent reads, since two first uses that race build equal dicts.
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
        users, items = arr[:, 0], arr[:, 1]
        if len(arr) and (arr.min() < 0 or users.max() >= num_users or items.max() >= num_items):
            raise ValueError("pair index out of range")
        # Pairs sorted by their u * num_items + v keys; equal keys are equal
        # pairs, so the order needs no tie-break. Column-major, so that every
        # user's items are one contiguous slice.
        self._pairs = np.empty(arr.shape, dtype=np.int64, order="F")
        np.divmod(np.sort(users * num_items + items), num_items, out=(self._pairs[:, 0], self._pairs[:, 1]))
        self._pairs.flags.writeable = False
        users, items = self._pairs[:, 0], self._pairs[:, 1]
        self.num_users = num_users
        self.num_items = num_items
        self.user_items = _Rows(items, np.bincount(users, minlength=num_users))
        # Sorted v * num_users + u keys list each item's users in ascending order.
        by_item = np.sort(items * num_users + users) % num_users
        self.item_users = _Rows(by_item, np.bincount(items, minlength=num_items))
        self.user_keys = list(user_keys)
        self.item_keys = list(item_keys)

    @functools.cached_property
    def user_index(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.user_keys)}

    @functools.cached_property
    def item_index(self) -> dict[str, int]:
        return {k: i for i, k in enumerate(self.item_keys)}

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
    _pair_keys: np.ndarray | None = field(default=None, init=False, repr=False)
    _all_user_items: _Rows | None = field(default=None, init=False, repr=False)

    @property
    def num_users(self) -> int:
        return self.train.num_users

    @property
    def num_items(self) -> int:
        return self.train.num_items

    def pair_keys(self) -> np.ndarray:
        """Sorted read-only ``u * num_items + v`` keys of the union of the
        three views, so membership of many pairs is one ``searchsorted``."""
        if self._pair_keys is None:
            pairs = np.concatenate([v.pair_array() for v in (self.train, self.validation, self.test)])
            self._pair_keys = _sorted_unique(pairs @ (self.num_items, 1))
            self._pair_keys.flags.writeable = False
        return self._pair_keys

    def all_user_items(self, u: int) -> np.ndarray:
        """Union of the user's items over all three views (sorted)."""
        if self._all_user_items is None:
            users, items = np.divmod(self.pair_keys(), self.num_items)
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
) -> RawInteractions:
    """Parse an event stream into binarized, deduplicated positives.

    Each line is ``user<sep>item[<sep>value[...]]``; rows with
    ``value >= threshold`` are kept. A missing value column counts as
    above-threshold (already-binary data). Extra columns (timestamps etc.)
    are ignored. The delimiter is auto-detected among comma and tab, and so
    is a header row.
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
    delimiter: str | None = None
    try:
        lineno = 0
        for raw_line in fh:
            lineno += 1
            line = raw_line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            first_data_line = delimiter is None
            if first_data_line:
                delimiter = _detect_delimiter(line)
            fields = [f.strip() for f in line.split(delimiter)]
            if first_data_line and _looks_like_header(fields):
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

    Every user and item below ``k`` interactions is dropped at once, until
    nothing changes, so every surviving user and item keeps at least ``k``
    interactions; the k-core is unique, so the order of the drops does not
    change it. Dense indices are assigned by sorted original key, which makes
    the mapping independent of input row order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    user_keys = sorted({u for u, _ in raw.pairs})
    item_keys = sorted({v for _, v in raw.pairs})
    uidx = {u: i for i, u in enumerate(user_keys)}
    iidx = {v: i for i, v in enumerate(item_keys)}
    n = len(item_keys)
    codes = np.fromiter((uidx[u] * n + iidx[v] for u, v in raw.pairs), np.int64)
    users, items = np.divmod(_sorted_unique(codes), n)  # a repeated pair counts once
    iterations = 0
    while True:
        iterations += 1
        keep = (np.bincount(users)[users] >= k) & (np.bincount(items)[items] >= k)
        if keep.all():
            break
        users, items = users[keep], items[keep]
    if len(users) == 0:
        raise EmptyDatasetError(f"k-core filter with k={k} emptied the dataset after {iterations} iterations")

    kept_users, users = np.unique(users, return_inverse=True)
    kept_items, items = np.unique(items, return_inverse=True)
    ds = InteractionDataset(
        len(kept_users),
        len(kept_items),
        np.column_stack((users, items)),
        [user_keys[i] for i in kept_users.tolist()],
        [item_keys[i] for i in kept_items.tolist()],
    )
    assert ds.user_items.lengths.min() >= k and ds.item_users.lengths.min() >= k
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
    and logged, never dropped); a user with none gets empty rows in all
    three views. The same ``(ds, seed)`` reproduces the identical split.
    """
    if not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError("all ratios must be finite and > 0")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    # Each user's shuffled items, cut per view; a view is assembled once.
    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    small_users = 0
    for u in range(ds.num_users):
        items = ds.user_items[u]
        n = len(items)
        # ``permutation`` raises on an empty read-only row; every user has
        # its own substream, so skipping the draw leaves the others' as they are
        perm = rngmod.substream(seed, rngmod.SPLIT, u).permutation(items) if n else items
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
    degrees = np.sort(ds.user_items.lengths)
    median = degrees[(len(degrees) - 1) // 2]
    return Stats(
        num_users=ds.num_users,
        num_items=ds.num_items,
        num_interactions=ds.num_interactions,
        density=interaction_density(ds.num_users, ds.num_items, ds.num_interactions),
        median_interactions_per_user=int(median),
    )


def _history(row: np.ndarray, exclude: int | None, cap: int, gen: np.random.Generator | None) -> np.ndarray:
    """``row`` (a sorted index list) minus ``exclude``, subsampled to ``cap``
    members drawn without replacement by ``gen`` and kept sorted."""
    if exclude is not None:
        pos = int(np.searchsorted(row, exclude))
        if pos < len(row) and row[pos] == exclude:
            row = np.delete(row, pos)
    if cap < len(row):
        if gen is None:
            raise ValueError("a generator is required when the history exceeds the cap")
        row = np.sort(gen.choice(row, size=cap, replace=False))
    return row


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
    return _history(split.train.user_items[u], exclude, cap, gen)


def item_history(
    split: SplitDataset,
    v: int,
    exclude: int | None = None,
    cap: int = 50,
    gen: np.random.Generator | None = None,
) -> np.ndarray:
    """Train-set users of item ``v`` minus ``exclude``, subsampled to ``cap``."""
    return _history(split.train.item_users[v], exclude, cap, gen)


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
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    rows = [line.partition("\t") for line in lines if line]
    # Nothing here may grow with ``expected`` beyond the file's rows: a
    # corrupt count is refused at the cost of reading the file.
    if len(rows) == expected and [idx for idx, _, _ in rows] == [str(i) for i in range(expected)]:
        listed = [key for _, _, key in rows]  # line i holds index i, as save_split_dir writes it
        if len(set(listed)) == expected:
            return listed
    keys: dict[int, str] = {}
    lines_of: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        idx_str, _, key = line.partition("\t")
        try:
            idx = int(idx_str)
        except ValueError as exc:
            raise ParseError(lineno, f"bad index in key map: {idx_str!r}", path) from exc
        if not 0 <= idx < expected:
            raise ParseError(lineno, f"key-map index {idx} out of range 0..{expected - 1}", path)
        if idx in keys:
            raise ParseError(lineno, f"key-map index {idx} is listed twice", path)
        if key in lines_of:
            raise ParseError(lineno, f"key-map key {key!r} is listed twice (first on line {lines_of[key]})", path)
        keys[idx] = key
        lines_of[key] = lineno
    if len(lines_of) != expected:
        raise DataError(f"{path}: expected {expected} key rows, found {len(lines_of)}")
    return [keys[i] for i in range(expected)]


def _read_pairs(path: str, num_users: int, num_items: int) -> np.ndarray:
    """A view file's ``user<TAB>item`` rows as an int64 ``(n, 2)`` array.

    A file of ASCII digits, tabs and line breaks only is converted in one
    ``np.loadtxt`` call, on which the two parsers agree. Any other file, one
    that call rejects, or a result with the wrong shape or an index out of
    range goes to the per-line parser, which returns the same array or raises
    the :class:`ParseError` that names the file and the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # No digit means no rows, on which loadtxt warns. Other characters are
    # left to the per-line parser: numpy strips some from a field that int()
    # rejects, such as "\x1c".
    if data.strip(b"\t\r\n") and not data.translate(None, b"0123456789\t\r\n"):
        try:
            pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", comments=None, ndmin=2, encoding="utf-8")
        except ValueError:
            pass
        else:
            if pairs.shape[1] == 2 and pairs[:, 0].max() < num_users and pairs[:, 1].max() < num_items:
                return pairs
    return _read_pairs_by_line(path, num_users, num_items)


def _read_pairs_by_line(path: str, num_users: int, num_items: int) -> np.ndarray:
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


def _check_disjoint(path: str, views: dict[str, InteractionDataset], num_items: int) -> np.ndarray:
    """Reject a pair listed twice in one view or present in two views, and
    return the sorted ``u * num_items + v`` keys of the union."""
    pairs = np.concatenate([view.pair_array() for view in views.values()])
    keys, counts = np.unique(pairs @ (num_items, 1), return_counts=True)
    if (counts == 1).all():
        return keys
    u, v = divmod(int(keys[np.argmax(counts > 1)]), num_items)
    files = [os.path.join(path, VIEW_FILES[name]) for name, view in views.items() if view.has_pair(u, v)]
    if len(files) == 1:
        raise DataError(f"{files[0]}: pair ({u}, {v}) is listed more than once")
    raise DataError(f"{files[0]} and {files[1]} both hold pair ({u}, {v}); the views must be disjoint")


def load_split_dir(path: str | os.PathLike) -> tuple[SplitDataset, dict[str, str]]:
    """Load a dataset directory written by :func:`save_split_dir`.

    Raises :class:`DataError` naming the file when a line does not parse,
    a key-map index or key is listed twice, a view's row count differs from
    its ``meta`` count, ``meta`` gives a negative seed, or a pair repeats
    within one view or across two.
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
    if seed < 0:
        raise DataError(f"{meta_path}: seed must be >= 0, got {seed}")
    user_keys = _read_keys(os.path.join(path, USER_KEYS_FILE), num_users)
    item_keys = _read_keys(os.path.join(path, ITEM_KEYS_FILE), num_items)
    views = {}
    for name, fname in VIEW_FILES.items():
        view_path = os.path.join(path, fname)
        pairs = _read_pairs(view_path, num_users, num_items)
        if len(pairs) != counts[name]:
            raise DataError(f"{view_path}: holds {len(pairs)} pairs, but {meta_path} gives num_{name}={counts[name]}")
        views[name] = InteractionDataset(num_users, num_items, pairs, user_keys, item_keys)
    pair_keys = _check_disjoint(path, views, num_items)
    split = SplitDataset(train=views["train"], validation=views["validation"], test=views["test"], seed=seed)
    pair_keys.flags.writeable = False
    split._pair_keys = pair_keys
    return split, meta
