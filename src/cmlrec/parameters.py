"""Learnable tensors, sparse Adam updates, and checkpoint IO.

The store owns user/item embeddings plus the relation key and memory
matrices (and a second key/memory pair when the item-side attention module
is enabled). All of them are row blocks of one (rows, dim) float64 arena,
laid out in ``TENSOR_ORDER``, and gradients, Adam moments and the unit-ball
projection address the same arena rows. So a training step reduces, checks,
updates and projects once, whatever the number of tensors, and a checkpoint
payload is the arena itself in float32. User and item rows live inside the
L2 unit ball; keys and memories are unconstrained.
"""
from __future__ import annotations

import functools
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

CHECKPOINT_MAGIC = b"CMLR"
CHECKPOINT_VERSION = 1

# Tensor ids double as ParameterStore attribute names.
USER_VECS = "user_vecs"
ITEM_VECS = "item_vecs"
REL_KEYS = "rel_keys"
REL_MEMORIES = "rel_memories"
ITEM_REL_KEYS = "item_rel_keys"
ITEM_REL_MEMORIES = "item_rel_memories"
TENSOR_ORDER = (USER_VECS, ITEM_VECS, REL_KEYS, REL_MEMORIES, ITEM_REL_KEYS, ITEM_REL_MEMORIES)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NonFiniteGradientError(ValueError):
    """A gradient entry was NaN or infinite."""

    def __init__(self, tensor: str, row: int):
        super().__init__(f"non-finite gradient in tensor {tensor!r}, row {row}")
        self.tensor = tensor
        self.row = row


class CheckpointError(Exception):
    """The checkpoint file is malformed, truncated, or corrupted."""


def _block_sizes(num_users: int, num_items: int, n_relations: int, with_item_memory: bool) -> tuple[int, ...]:
    """Rows of each tensor present, in ``TENSOR_ORDER``."""
    return (num_users, num_items) + (n_relations,) * (4 if with_item_memory else 2)


def _locate(blocks: dict[str, slice], row: int) -> tuple[str, int]:
    """The tensor holding arena row ``row`` and the row's index in it."""
    name = next(name for name, block in blocks.items() if row < block.stop)
    return name, row - blocks[name].start


class ParameterStore:
    """All learnable tensors of one model, as row blocks of one arena.

    ``arena`` is a C-contiguous (rows, dim) float64 array holding the tensors
    one after another in ``TENSOR_ORDER``; ``blocks`` maps each tensor's name
    to its row slice. The tensor attributes are views of their blocks, so a
    write to either is seen by both. ``item_rel_keys``/``item_rel_memories``
    are present only when the model uses the item-side attention module;
    they are None otherwise.
    """

    user_vecs: np.ndarray
    item_vecs: np.ndarray
    rel_keys: np.ndarray
    rel_memories: np.ndarray
    item_rel_keys: np.ndarray | None
    item_rel_memories: np.ndarray | None

    def __init__(self, arena: np.ndarray, num_users: int, num_items: int, n_relations: int, with_item_memory: bool = False):
        self.arena = arena
        self.num_users = num_users
        self.num_items = num_items
        self.n_relations = n_relations
        self.dim = arena.shape[1]
        self.has_item_memory = with_item_memory
        sizes = _block_sizes(num_users, num_items, n_relations, with_item_memory)
        stops = np.cumsum(sizes).tolist()
        self.blocks = {name: slice(stop - size, stop) for name, size, stop in zip(TENSOR_ORDER, sizes, stops)}
        for name in TENSOR_ORDER:
            setattr(self, name, arena[self.blocks[name]] if name in self.blocks else None)

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.blocks}

    def copy(self) -> "ParameterStore":
        return ParameterStore(self.arena.copy(), self.num_users, self.num_items, self.n_relations, self.has_item_memory)

    def check_finite(self) -> None:
        finite = np.isfinite(self.arena)
        if not finite.all():
            name, _ = _locate(self.blocks, int(np.argmax(~finite.all(axis=1))))
            raise FloatingPointError(f"tensor {name!r} contains non-finite entries")


def init_parameters(
    num_users: int,
    num_items: int,
    dim: int,
    n_relations: int,
    with_item_memory: bool = False,
    seed: int = 0,
) -> ParameterStore:
    """Draw every entry from N(0, 1/sqrt(dim)) and project embedding rows
    into the unit ball. Identical seeds produce identical stores."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n_relations < 1:
        raise ValueError("n_relations must be >= 1")
    gen = rngmod.substream(seed, rngmod.INIT)
    rows = sum(_block_sizes(num_users, num_items, n_relations, with_item_memory))
    arena = gen.normal(0.0, 1.0 / np.sqrt(dim), size=(rows, dim))
    store = ParameterStore(arena, num_users, num_items, n_relations, with_item_memory)
    project_unit_ball(store)
    return store


class SparseGradients:
    """Accumulated partial derivatives, touched rows only.

    The pieces that a batch adds are kept with their rows in the store's
    arena, so no buffer is sized to an embedding table. ``sums`` reduces all
    pieces once to sorted unique arena rows and their sums, at a cost that
    scales with the rows touched. ``add_dense`` adds a piece covering every
    row of a tensor, which suits the N x d keys and memories: a tensor's
    dense pieces are added in order into one array, which joins the
    reduction as one piece. The sums are deterministic: the same pieces
    added in the same order give bit-identical sums (see :func:`_sum_rows`).
    The added values are kept, not copied, so callers must not change them
    afterwards.
    """

    def __init__(self, store: ParameterStore):
        self._blocks = store.blocks
        self._dim = store.dim
        self._pieces: list[tuple[np.ndarray, np.ndarray]] = []  # (arena rows, values)
        self._dense: dict[str, list[np.ndarray]] = {}
        self._sums: tuple[np.ndarray, np.ndarray] | None = None

    def add_rows(self, tensor: str, rows: np.ndarray, vecs: np.ndarray) -> None:
        """Scatter-add ``vecs[i]`` into ``rows[i]``; repeated rows accumulate."""
        if len(rows) == 0:
            return
        rows = np.asarray(rows, dtype=np.int64) + self._blocks[tensor].start
        self._pieces.append((rows, np.asarray(vecs, dtype=np.float64)))
        self._sums = None

    def add_dense(self, tensor: str, mat: np.ndarray) -> None:
        """Add ``mat[r]`` into every row ``r`` of ``tensor``."""
        self._dense.setdefault(tensor, []).append(np.asarray(mat, dtype=np.float64))
        self._sums = None

    # A non-finite sum is reported, with its row, by check_finite.
    @np.errstate(over="ignore", invalid="ignore")
    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique touched arena rows and their summed gradients."""
        if self._sums is None:
            dense = [
                (np.arange(self._blocks[name].start, self._blocks[name].stop), functools.reduce(np.add, mats))
                for name, mats in self._dense.items()
            ]
            self._sums = _sum_rows(self._pieces + dense, self._dim)
        return self._sums

    def __len__(self) -> int:
        return len(self.sums()[0])

    def check_finite(self) -> None:
        """Raise for the first non-finite row in arena order, which is
        ``TENSOR_ORDER``, naming its tensor and its row in that tensor."""
        rows, values = self.sums()
        finite = np.isfinite(values)
        if not finite.all():
            raise NonFiniteGradientError(*_locate(self._blocks, int(rows[np.argmax(~finite.all(axis=1))])))


def _sum_rows(pieces: list[tuple[np.ndarray, np.ndarray]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique rows of the (rows, values) pieces and the sum of each
    row's values.

    The n entries of all pieces are sorted by the unique key
    row · n + position, which needs rows · n < 2⁶³; that puts each row's
    values in the order they were added, as a stable sort of the rows would,
    and ``np.add.reduceat`` sums each row's run. reduceat does not add a run
    strictly left to right, but it is deterministic: the same pieces added
    in the same order give bit-identical sums, and a run of one entry keeps
    its bytes.
    """
    if not pieces:
        return np.empty(0, dtype=np.int64), np.empty((0, dim))
    rows = np.concatenate([r for r, _ in pieces])
    values = np.concatenate([v for _, v in pieces])
    n = len(rows)
    rows, order = np.divmod(np.sort(rows * n + np.arange(n)), n)
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    return rows[starts], np.add.reduceat(np.take(values, order, axis=0), starts, axis=0)


@dataclass
class AdamState:
    """First/second moment accumulators over the store's arena rows, plus
    the shared step counter.

    Rows are updated lazily: moments of rows absent from a batch keep their
    values, matching sparse-embedding practice.
    """

    moment1: np.ndarray
    moment2: np.ndarray
    step: int = 0

    @classmethod
    def for_store(cls, store: ParameterStore) -> "AdamState":
        return cls(moment1=np.zeros_like(store.arena), moment2=np.zeros_like(store.arena))


def adam_step(store: ParameterStore, grads: SparseGradients, state: AdamState, lr: float) -> np.ndarray:
    """Apply one bias-corrected Adam update to the rows present in ``grads``
    and return those rows: the sorted unique arena rows of ``grads.sums()``.

    Untouched rows and their moments are left as-is. The step counter
    advances exactly once per call. Raises on a non-finite or negative
    ``lr`` and on non-finite gradients before touching anything.
    """
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    grads.check_finite()
    state.step += 1
    bias1 = 1.0 - ADAM_BETA1**state.step
    bias2 = 1.0 - ADAM_BETA2**state.step
    rows, g = grads.sums()
    # the gathered moment rows are updated in place and scattered once
    m = state.moment1[rows]
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    state.moment1[rows] = m
    v = state.moment2[rows]
    v *= ADAM_BETA2
    g2 = (1.0 - ADAM_BETA2) * g
    g2 *= g
    v += g2
    state.moment2[rows] = v
    v /= bias2
    np.sqrt(v, out=v)
    v += ADAM_EPS
    m /= bias1
    m *= lr
    m /= v
    store.arena[rows] -= m
    return rows


def project_unit_ball(store: ParameterStore, rows: np.ndarray | None = None) -> None:
    """Rescale the user and item rows among the arena rows ``rows`` (every
    user and item row when None) to L2 norm <= 1.

    Users and items are the arena's first rows, those below the item
    block's end; the key and memory rows among ``rows``, such as those that
    :func:`adam_step` returns, are left untouched. Only rows whose squared
    norm exceeds 1 are rescaled and written back, so rows inside the ball
    stay bit-identical. Idempotent, and the origin is a fixed point.
    """
    stop = store.blocks[ITEM_VECS].stop
    rows = np.arange(stop) if rows is None else rows[rows < stop]
    block = store.arena[rows]
    squares = np.einsum("ij,ij->i", block, block)  # inf, with no warning, where it overflows
    outside = np.flatnonzero(squares > 1.0)
    if len(outside) == 0:
        return
    far = block[outside]
    norms = np.sqrt(squares[outside])
    huge = np.isinf(norms)
    if huge.any():  # norm² overflowed: scale before squaring
        amax = np.abs(far[huge]).max(axis=1, keepdims=True)
        norms[huge] = amax[:, 0] * np.linalg.norm(far[huge] / amax, axis=1)
    far /= norms[:, None]
    store.arena[rows[outside]] = far


def _pack_header(store: ParameterStore) -> bytes:
    return struct.pack(
        "<5I",
        store.num_users,
        store.num_items,
        store.dim,
        store.n_relations,
        1 if store.has_item_memory else 0,
    )


def checkpoint_bytes(store: ParameterStore) -> bytes:
    """Serialize: magic, version, shape header, the arena as float32 LE (the
    tensors in ``TENSOR_ORDER``), then a CRC32 of that payload."""
    payload = store.arena.astype("<f4").tobytes()
    return b"".join((
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        _pack_header(store),
        payload,
        struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF),
    ))


def save_checkpoint(store: ParameterStore, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(store))


def load_checkpoint(path: str | os.PathLike) -> ParameterStore:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` for a malformed or corrupted file and for
    a payload holding NaN or infinity, whose CRC alone would pass it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 32 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", data[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    num_users, num_items, dim, n_rel, flag = struct.unpack("<5I", data[8:28])
    if dim < 1 or n_rel < 1:
        raise CheckpointError(f"{path}: dim {dim} and n_relations {n_rel} must be >= 1")
    rows = sum(_block_sizes(num_users, num_items, n_rel, bool(flag)))
    payload_len = rows * dim * 4
    expected_len = 28 + payload_len + 4
    if len(data) != expected_len:
        raise CheckpointError(f"{path}: expected {expected_len} bytes, found {len(data)}")
    payload = data[28 : 28 + payload_len]
    (crc_stored,) = struct.unpack("<I", data[28 + payload_len :])
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_stored:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    arena = np.frombuffer(payload, dtype="<f4").reshape(rows, dim).astype(np.float64)
    store = ParameterStore(arena, num_users, num_items, n_rel, bool(flag))
    try:
        store.check_finite()
    except FloatingPointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return store
