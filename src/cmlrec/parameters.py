"""Learnable tensors, sparse Adam updates, and checkpoint IO.

The store owns user/item embeddings plus the relation key and memory
matrices (and a second key/memory pair when the item-side attention module
is enabled). User and item rows live inside the L2 unit ball; keys and
memories are unconstrained.
"""
from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass, field

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


class NonFiniteGradientError(ValueError):
    """A gradient entry was NaN or infinite."""

    def __init__(self, tensor: str, row: int):
        super().__init__(f"non-finite gradient in tensor {tensor!r}, row {row}")
        self.tensor = tensor
        self.row = row


class CheckpointError(Exception):
    """The checkpoint file is malformed, truncated, or corrupted."""


@dataclass
class ParameterStore:
    """All learnable tensors of one model.

    ``item_rel_keys``/``item_rel_memories`` are present only when the model
    uses the item-side attention module; they are None otherwise.
    """

    user_vecs: np.ndarray
    item_vecs: np.ndarray
    rel_keys: np.ndarray
    rel_memories: np.ndarray
    item_rel_keys: np.ndarray | None = None
    item_rel_memories: np.ndarray | None = None

    @property
    def num_users(self) -> int:
        return self.user_vecs.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_vecs.shape[0]

    @property
    def dim(self) -> int:
        return self.user_vecs.shape[1]

    @property
    def n_relations(self) -> int:
        return self.rel_keys.shape[0]

    @property
    def has_item_memory(self) -> bool:
        return self.item_rel_keys is not None

    def tensors(self) -> dict[str, np.ndarray]:
        out = {
            USER_VECS: self.user_vecs,
            ITEM_VECS: self.item_vecs,
            REL_KEYS: self.rel_keys,
            REL_MEMORIES: self.rel_memories,
        }
        if self.item_rel_keys is not None:
            out[ITEM_REL_KEYS] = self.item_rel_keys
            out[ITEM_REL_MEMORIES] = self.item_rel_memories
        return out

    def copy(self) -> "ParameterStore":
        return ParameterStore(
            user_vecs=self.user_vecs.copy(),
            item_vecs=self.item_vecs.copy(),
            rel_keys=self.rel_keys.copy(),
            rel_memories=self.rel_memories.copy(),
            item_rel_keys=None if self.item_rel_keys is None else self.item_rel_keys.copy(),
            item_rel_memories=None if self.item_rel_memories is None else self.item_rel_memories.copy(),
        )

    def check_finite(self) -> None:
        for name, arr in self.tensors().items():
            if not np.all(np.isfinite(arr)):
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
    scale = 1.0 / np.sqrt(dim)

    def draw(rows: int) -> np.ndarray:
        return gen.normal(0.0, scale, size=(rows, dim))

    store = ParameterStore(
        user_vecs=draw(num_users),
        item_vecs=draw(num_items),
        rel_keys=draw(n_relations),
        rel_memories=draw(n_relations),
        item_rel_keys=draw(n_relations) if with_item_memory else None,
        item_rel_memories=draw(n_relations) if with_item_memory else None,
    )
    project_unit_ball(store)
    return store


class SparseGradients:
    """Accumulated partial derivatives, touched rows only.

    Each tensor keeps the (rows, values) pieces that a batch adds, so no
    buffer is sized to an embedding table. The first read of a tensor
    reduces its pieces once to sorted unique rows and their sums
    (``rows_values``, the public view): a stable sort and one
    ``add.reduceat``, whose cost scales with the rows touched. ``add_dense``
    adds a piece covering every row, which suits the N x d keys and
    memories. Each row's values are summed in the order they were added,
    keeping batch sums deterministic. The added arrays are kept, not copied,
    so callers must not change them afterwards.
    """

    def __init__(self, store: ParameterStore):
        self._shapes = {name: arr.shape for name, arr in store.tensors().items()}
        self._pieces: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {name: [] for name in self._shapes}
        self._sums: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, tensor: str, row: int, vec: np.ndarray) -> None:
        self.add_rows(tensor, np.array([row]), np.reshape(vec, (1, -1)))

    def add_rows(self, tensor: str, rows: np.ndarray, vecs: np.ndarray) -> None:
        """Scatter-add ``vecs[i]`` into ``rows[i]``; repeated rows accumulate."""
        if len(rows) == 0:
            return
        self._pieces[tensor].append((np.asarray(rows, dtype=np.int64), np.asarray(vecs, dtype=np.float64)))
        self._sums.pop(tensor, None)

    def add_dense(self, tensor: str, mat: np.ndarray) -> None:
        self.add_rows(tensor, np.arange(self._shapes[tensor][0]), mat)

    def rows_values(self, tensor: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique touched rows of ``tensor`` and their summed gradients."""
        if tensor not in self._sums:
            self._sums[tensor] = _sum_rows(self._pieces[tensor], self._shapes[tensor][1])
        return self._sums[tensor]

    def tensors(self) -> list[str]:
        return [name for name, pieces in self._pieces.items() if pieces]

    def rows(self, tensor: str) -> np.ndarray:
        return self.rows_values(tensor)[0]

    def vec(self, tensor: str, row: int) -> np.ndarray:
        rows, values = self.rows_values(tensor)
        i = int(np.searchsorted(rows, row))
        if i < len(rows) and rows[i] == row:
            return values[i]
        return np.zeros(self._shapes[tensor][1])

    def __len__(self) -> int:
        return sum(len(self.rows(name)) for name in self.tensors())

    def check_finite(self) -> None:
        for name in self.tensors():
            rows, values = self.rows_values(name)
            bad = ~np.isfinite(values).all(axis=1)
            if bad.any():
                raise NonFiniteGradientError(name, int(rows[np.argmax(bad)]))


def _sum_rows(pieces: list[tuple[np.ndarray, np.ndarray]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique rows of the pieces and the sum of each row's values.

    A stable sort keeps each row's values in piece order, so the sums are
    deterministic."""
    if not pieces:
        return np.empty(0, dtype=np.int64), np.empty((0, dim))
    rows = np.concatenate([r for r, _ in pieces])
    values = np.concatenate([v for _, v in pieces])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    return rows[starts], np.add.reduceat(values[order], starts, axis=0)


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter.

    Rows are updated lazily: moments of rows absent from a batch keep their
    values, matching sparse-embedding practice.
    """

    moment1: dict[str, np.ndarray]
    moment2: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_store(cls, store: ParameterStore, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(
            moment1={name: np.zeros_like(arr) for name, arr in store.tensors().items()},
            moment2={name: np.zeros_like(arr) for name, arr in store.tensors().items()},
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(store: ParameterStore, grads: SparseGradients, state: AdamState, lr: float) -> None:
    """Apply one bias-corrected Adam update to the rows present in ``grads``.

    Untouched rows and their moments are left as-is. The step counter
    advances exactly once per call. Raises on non-finite gradients before
    touching anything.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    grads.check_finite()
    state.step += 1
    bias1 = 1.0 - state.beta1**state.step
    bias2 = 1.0 - state.beta2**state.step
    tensors = store.tensors()
    for name in grads.tensors():
        rows, g = grads.rows_values(name)
        m = state.beta1 * state.moment1[name][rows] + (1.0 - state.beta1) * g
        v = state.beta2 * state.moment2[name][rows] + (1.0 - state.beta2) * g * g
        state.moment1[name][rows] = m
        state.moment2[name][rows] = v
        tensors[name][rows] -= lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)


def project_unit_ball(
    store: ParameterStore,
    user_rows: np.ndarray | None = None,
    item_rows: np.ndarray | None = None,
) -> None:
    """Rescale user/item rows to L2 norm <= 1 (keys and memories untouched).

    With explicit row arguments only those rows are projected; passing None
    projects every row. Idempotent, and the origin is a fixed point.
    """

    def project(mat: np.ndarray, rows: np.ndarray | None) -> None:
        block = mat if rows is None else mat[rows]
        # scale before squaring so huge-but-finite rows do not overflow
        amax = np.maximum(np.abs(block).max(axis=1, keepdims=True), 1.0)
        norms = amax * np.linalg.norm(block / amax, axis=1, keepdims=True)
        scaled = block / np.maximum(norms, 1.0)
        if rows is None:
            mat[:] = scaled
        else:
            mat[rows] = scaled

    project(store.user_vecs, user_rows)
    project(store.item_vecs, item_rows)


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
    """Serialize: magic, version, shape header, float32 LE payloads in fixed
    tensor order, then a CRC32 of the payload."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(_pack_header(store))
    payload = io.BytesIO()
    tensors = store.tensors()
    for name in TENSOR_ORDER:
        if name in tensors:
            payload.write(np.ascontiguousarray(tensors[name], dtype="<f4").tobytes())
    payload_bytes = payload.getvalue()
    buf.write(payload_bytes)
    buf.write(struct.pack("<I", zlib.crc32(payload_bytes) & 0xFFFFFFFF))
    return buf.getvalue()


def save_checkpoint(store: ParameterStore, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(store))


def load_checkpoint(path: str | os.PathLike) -> ParameterStore:
    """Load and verify a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 32 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", data[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    num_users, num_items, dim, n_rel, flag = struct.unpack("<5I", data[8:28])
    shapes = [(num_users, dim), (num_items, dim), (n_rel, dim), (n_rel, dim)]
    if flag:
        shapes += [(n_rel, dim), (n_rel, dim)]
    payload_len = sum(r * c for r, c in shapes) * 4
    expected_len = 28 + payload_len + 4
    if len(data) != expected_len:
        raise CheckpointError(f"{path}: expected {expected_len} bytes, found {len(data)}")
    payload = data[28 : 28 + payload_len]
    (crc_stored,) = struct.unpack("<I", data[28 + payload_len :])
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc_stored:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    arrays = []
    offset = 0
    for rows, cols in shapes:
        nbytes = rows * cols * 4
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f4").reshape(rows, cols)
        arrays.append(arr.astype(np.float64))
        offset += nbytes
    return ParameterStore(
        user_vecs=arrays[0],
        item_vecs=arrays[1],
        rel_keys=arrays[2],
        rel_memories=arrays[3],
        item_rel_keys=arrays[4] if flag else None,
        item_rel_memories=arrays[5] if flag else None,
    )
