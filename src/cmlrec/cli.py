"""Command-line surface: preprocess, train, evaluate, grid-search, recommend.

Configuration is declarative: every option has a default, a flat key=value
config file can override defaults, and explicit command-line flags win over
both. Each command echoes its fully-resolved effective config before doing
work, so any run can be re-created from its output alone.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence

from . import rng
from .datasets import (
    DataError,
    dataset_stats,
    item_history,
    k_core_filter,
    load_interactions,
    load_split_dir,
    save_split_dir,
    split_dataset,
)
from .evaluation import EvaluationError, evaluate, rank_items, ranking_history, report_csv, report_table
from .models import ModelKind, NonFiniteScoreError, _Adjacency
from .parameters import (
    CheckpointError,
    NonFiniteGradientError,
    load_checkpoint,
    save_checkpoint,
)
from .training import GridCell, Hyperparams, grid_search, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    """Bad flags, config keys, or option values."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1."""

    def error(self, message):  # noqa: A002 - argparse signature
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _parse_config_file(path: str) -> dict[str, str]:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _coerce(key: str, text: str, template) -> object:
    try:
        if isinstance(template, bool):
            low = text.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return float(text)
        return text
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {text!r} as {type(template).__name__}") from None


def _resolve(args: argparse.Namespace, defaults: dict[str, object]) -> dict[str, object]:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        for key, text in _parse_config_file(config_path).items():
            if key not in defaults:
                raise UsageError(f"unknown config key {key!r} (valid: {', '.join(sorted(defaults))})")
            template = defaults[key] if defaults[key] is not None else ""
            merged[key] = _coerce(key, text, template)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _echo_config(cfg: dict[str, object], out_dir: str | None = None) -> None:
    lines = ["# effective config"]
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, ModelKind):
            value = value.value
        lines.append(f"{key}={value}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)


def _require(cfg: dict[str, object], key: str) -> object:
    if cfg.get(key) in (None, ""):
        raise UsageError(f"missing required option: {key}")
    return cfg[key]


def _model_kind(cfg: dict[str, object]) -> ModelKind:
    try:
        return ModelKind.parse(str(_require(cfg, "model")))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _hyperparams(cfg: dict[str, object], kind: ModelKind) -> Hyperparams:
    hp = Hyperparams(
        kind=kind,
        dim=int(cfg["dim"]),
        n_relations=int(cfg["n_relations"]),
        margin=float(cfg["margin"]),
        lr=float(cfg["lr"]),
        batch_size=int(cfg["batch_size"]),
        max_epochs=int(cfg["max_epochs"]),
        history_cap=int(cfg["history_cap"]),
        seed=int(cfg["seed"]),
    )
    try:
        hp.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return hp


def _ranking_options(cfg: dict[str, object]) -> tuple[int, int]:
    """The ranking cutoff ``k`` (>= 1) and ``history_cap`` (>= 0)."""
    k, cap = int(cfg["k"]), int(cfg["history_cap"])
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if cap < 0:
        raise UsageError(f"history_cap must be >= 0, got {cap}")
    return k, cap


def _float_list(text: str, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{key}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{key}: empty list")
    return values


def _int_list(text: str, key: str) -> list[int]:
    return [int(v) for v in _float_list(text, key)]


def _load_data(path: str):
    if not os.path.isdir(path):
        raise DataError(f"dataset directory not found: {path}")
    return load_split_dir(path)


def _load_model(cfg: dict[str, object], split) -> tuple[ModelKind, "object"]:
    kind = _model_kind(cfg)
    ckpt_path = str(_require(cfg, "checkpoint"))
    if not os.path.isfile(ckpt_path):
        raise DataError(f"checkpoint not found: {ckpt_path}")
    store = load_checkpoint(ckpt_path)
    if (store.num_users, store.num_items) != (split.num_users, split.num_items):
        raise DataError(
            f"checkpoint shape ({store.num_users} users, {store.num_items} items) does not match "
            f"dataset shape ({split.num_users} users, {split.num_items} items)"
        )
    if kind.uses_item_memory and not store.has_item_memory:
        raise DataError(f"model {kind.value} needs item-side memory tensors absent from the checkpoint")
    return kind, store


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_PRE_DEFAULTS: dict[str, object] = {
    "input": None,
    "out": None,
    "threshold": 4.0,
    "k_core": 10,
    "ratios": "0.8,0.1,0.1",
    "seed": 0,
}


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _PRE_DEFAULTS)
    input_path = str(_require(cfg, "input"))
    out_dir = str(_require(cfg, "out"))
    ratios = _float_list(str(cfg["ratios"]), "ratios")
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
        raise UsageError(f"ratios must be three numbers summing to 1, got {cfg['ratios']!r}")
    _echo_config(cfg, out_dir)
    if not os.path.isfile(input_path):
        raise DataError(f"input file not found: {input_path}")
    raw = load_interactions(input_path, threshold=float(cfg["threshold"]))
    ds = k_core_filter(raw, k=int(cfg["k_core"]))
    split = split_dataset(ds, ratios=(ratios[0], ratios[1], ratios[2]), seed=int(cfg["seed"]))
    save_split_dir(split, out_dir, k=int(cfg["k_core"]), threshold=float(cfg["threshold"]))
    stats = dataset_stats(ds)
    rows = [
        ("users", f"{stats.num_users}"),
        ("items", f"{stats.num_items}"),
        ("interactions", f"{stats.num_interactions}"),
        ("density", f"{stats.density * 100:.3f}%"),
        ("median interactions/user", f"{stats.median_interactions_per_user}"),
        ("train/validation/test", "{}/{}/{}".format(
            split.train.num_interactions, split.validation.num_interactions, split.test.num_interactions)),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")
    print(f"wrote dataset directory: {out_dir}")
    return EXIT_OK


_TRAIN_DEFAULTS: dict[str, object] = {
    "data": None,
    "out": None,
    "model": "cml",
    "dim": 100,
    "n_relations": 10,
    "margin": 0.5,
    "lr": 0.001,
    "batch_size": 1000,
    "max_epochs": 100,
    "history_cap": 50,
    "seed": 0,
    "workers": 1,
}


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _TRAIN_DEFAULTS)
    data_dir = str(_require(cfg, "data"))
    out_dir = str(_require(cfg, "out"))
    kind = _model_kind(cfg)
    hp = _hyperparams(cfg, kind)
    _echo_config(cfg, out_dir)
    split, _meta = _load_data(data_dir)
    log_path = os.path.join(out_dir, "train_log.csv")
    with open(log_path, "w", encoding="utf-8") as log:
        log.write("epoch,train_loss,valid_loss,seconds\n")

        def log_fn(epoch: int, train_loss: float, valid_loss: float, seconds: float) -> None:
            log.write(f"{epoch},{train_loss:.12g},{valid_loss:.12g},{seconds:.3f}\n")
            log.flush()
            print(f"epoch {epoch:>3}  train_loss {train_loss:.6f}  valid_loss {valid_loss:.6f}  {seconds:.2f}s")

        store, report = train(split, hp, log_fn=log_fn)
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    save_checkpoint(store, ckpt_path)
    report.checkpoint_path = ckpt_path
    summary = [
        f"epochs_run={report.num_epochs}",
        f"best_epoch={report.best_epoch}",
        f"best_valid_loss={report.valid_losses[report.best_epoch]:.12g}" if report.best_epoch >= 0 else "best_valid_loss=nan",
        f"diverged={report.diverged}",
        f"checkpoint={ckpt_path}",
    ]
    print("\n".join(summary))
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    if report.diverged:
        print(f"numerical failure: {report.diagnostics}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_EVAL_DEFAULTS: dict[str, object] = {
    "checkpoint": None,
    "data": None,
    "model": None,
    "phase": "test",
    "k": 10,
    "history_cap": 50,
    "workers": 1,
    "out": "",
}


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _EVAL_DEFAULTS)
    k, cap = _ranking_options(cfg)
    phase = str(cfg["phase"])
    if phase not in ("validation", "test"):
        raise UsageError(f"phase must be validation or test, got {phase!r}")
    out_dir = str(cfg["out"]) or None
    _echo_config(cfg, out_dir)
    split, _meta = _load_data(str(_require(cfg, "data")))
    kind, store = _load_model(cfg, split)
    report = evaluate(
        store, kind, split, phase=phase, k=k, history_cap=cap, workers=int(cfg["workers"]),
    )
    table = report_table(report)
    print(table, end="")
    if out_dir is not None:
        with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(table)
        print(f"wrote {out_dir}/metrics.csv and {out_dir}/report.txt")
    return EXIT_OK


_GRID_DEFAULTS: dict[str, object] = {
    "data": None,
    "out": None,
    "model": "cml",
    "lr_grid": "0.0002,0.0005,0.00075,0.001",
    "n_grid": "5,10,20,50",
    "margin_grid": "0.2,0.5,0.75,1.0",
    "dim": 100,
    "n_relations": 10,
    "batch_size": 1000,
    "max_epochs": 100,
    "history_cap": 50,
    "seed": 0,
    "k": 10,
}


def cmd_grid(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _GRID_DEFAULTS)
    k, _cap = _ranking_options(cfg)
    data_dir = str(_require(cfg, "data"))
    out_dir = str(_require(cfg, "out"))
    kind = _model_kind(cfg)
    base = _hyperparams({**cfg, "margin": 0.5, "lr": 0.001}, kind)
    lr_grid = _float_list(str(cfg["lr_grid"]), "lr_grid")
    n_grid = _int_list(str(cfg["n_grid"]), "n_grid")
    margin_grid = _float_list(str(cfg["margin_grid"]), "margin_grid")
    _echo_config(cfg, out_dir)
    split, _meta = _load_data(data_dir)

    def log_fn(i: int, total: int, cell: GridCell) -> None:
        tag = f"ndcg={cell.ndcg:.4f}" if cell.status == "ok" and cell.ndcg is not None else f"failed: {cell.note}"
        print(f"cell {i + 1}/{total}  lr={cell.params.lr} n={cell.params.n_relations} "
              f"m={cell.params.margin}  {tag}")

    result = grid_search(split, base, lr_grid, n_grid, margin_grid, eval_k=k, log_fn=log_fn)
    with open(os.path.join(out_dir, "leaderboard.csv"), "w", encoding="utf-8") as fh:
        fh.write("rank,lr,n_relations,margin,ndcg,valid_loss,best_epoch\n")
        for rank, cell in enumerate(result.leaderboard, start=1):
            fh.write(f"{rank},{cell.params.lr:.12g},{cell.params.n_relations},{cell.params.margin:.12g},"
                     f"{cell.ndcg:.12g},{cell.valid_loss:.12g},{cell.best_epoch}\n")
    if result.failed:
        with open(os.path.join(out_dir, "failed.txt"), "w", encoding="utf-8") as fh:
            for cell in result.failed:
                fh.write(f"lr={cell.params.lr} n={cell.params.n_relations} m={cell.params.margin}: {cell.note}\n")
    if result.best_params is None or result.best_store is None:
        print("every grid cell failed; no model selected", file=sys.stderr)
        return EXIT_NUMERIC
    save_checkpoint(result.best_store, os.path.join(out_dir, "model.ckpt"))
    best = result.best_params
    best_lines = [
        f"model={best.kind.value}",
        f"lr={best.lr:.12g}",
        f"n_relations={best.n_relations}",
        f"margin={best.margin:.12g}",
        f"dim={best.dim}",
        f"best_ndcg={result.leaderboard[0].ndcg:.12g}",
    ]
    with open(os.path.join(out_dir, "best_config.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(best_lines) + "\n")
    print("\n".join(best_lines))
    print(f"{len(result.leaderboard)} cells ranked, {len(result.failed)} failed; "
          f"wrote {out_dir}/leaderboard.csv and {out_dir}/model.ckpt")
    return EXIT_OK


_REC_DEFAULTS: dict[str, object] = {
    "checkpoint": None,
    "data": None,
    "model": None,
    "users": "",
    "users_file": "",
    "k": 10,
    "history_cap": 50,
    "out": "",
}


def cmd_recommend(args: argparse.Namespace) -> int:
    cfg = _resolve(args, _REC_DEFAULTS)
    k, cap = _ranking_options(cfg)
    _echo_config(cfg)
    split, _meta = _load_data(str(_require(cfg, "data")))
    kind, store = _load_model(cfg, split)
    keys: list[str] = [tok.strip() for tok in str(cfg["users"]).split(",") if tok.strip()]
    users_file = str(cfg["users_file"])
    if users_file:
        if not os.path.isfile(users_file):
            raise DataError(f"users file not found: {users_file}")
        with open(users_file, "r", encoding="utf-8") as fh:
            keys.extend(line.strip() for line in fh if line.strip())
    if not keys:
        raise UsageError("no user keys given; use users=... or users_file=...")
    item_table = None
    if kind.uses_item_memory:
        # As in evaluate: a list that fits the cap is not subsampled, so its stream is never derived.
        item_table = _Adjacency.of([
            item_history(split, v, cap=cap, gen=rng.substream(split.seed, rng.EVALUATION, 1, v)
                         if len(split.train.item_users[v]) > cap else None)
            for v in range(split.num_items)
        ])
    lines: list[str] = []
    skipped: list[str] = []
    index = split.train.user_index
    for key in keys:
        if key not in index:
            skipped.append(key)
            continue
        u = index[key]
        exclusions = split.all_user_items(u)
        history = ranking_history(split, u, kind, cap)
        ranked = rank_items(u, store, kind, exclusions, k, history=history, item_histories=item_table)
        for rank, v in enumerate(ranked, start=1):
            lines.append(f"{key}\t{rank}\t{split.train.item_keys[int(v)]}")
    body = "\n".join(lines) + ("\n" if lines else "")
    if skipped:
        body += "# skipped unknown user keys: " + ", ".join(skipped) + "\n"
    out_path = str(cfg["out"])
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(body)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, keys: Iterable[str]) -> None:
    sub.add_argument("--config", default=None, help="key=value config file; flags override it")
    flags = {
        "input": (str, "raw interactions file (csv/tsv)"),
        "data": (str, "preprocessed dataset directory"),
        "out": (str, "output directory or file"),
        "checkpoint": (str, "model checkpoint path"),
        "model": (str, "model kind: cml, lrml, adacml, hlr, hlr++"),
        "threshold": (float, "minimum rating/count kept as a positive"),
        "k_core": (int, "k-core filter order"),
        "ratios": (str, "train,validation,test ratios"),
        "seed": (int, "root random seed"),
        "dim": (int, "embedding dimension"),
        "n_relations": (int, "relation memory slices"),
        "margin": (float, "hinge margin"),
        "lr": (float, "Adam learning rate"),
        "batch_size": (int, "triplets per optimizer step"),
        "max_epochs": (int, "training epoch budget"),
        "history_cap": (int, "attention history subsample size"),
        "workers": (int, "evaluation threads; any count gives the same results (train ignores it)"),
        "k": (int, "ranking cutoff"),
        "phase": (str, "evaluation phase: validation or test"),
        "lr_grid": (str, "comma-separated learning rates"),
        "n_grid": (str, "comma-separated memory sizes"),
        "margin_grid": (str, "comma-separated margins"),
        "users": (str, "comma-separated user keys"),
        "users_file": (str, "file with one user key per line"),
    }
    for key in keys:
        typ, help_text = flags[key]
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=None, help=help_text)


_COMMANDS = (
    ("preprocess", "binarize, k-core filter, split, and write a dataset directory", _PRE_DEFAULTS, cmd_preprocess),
    ("train", "train one model and write its best-epoch checkpoint", _TRAIN_DEFAULTS, cmd_train),
    ("evaluate", "rank the full catalog and report the metrics", _EVAL_DEFAULTS, cmd_evaluate),
    ("grid-search", "train a grid of configs and rank them by validation NDCG", _GRID_DEFAULTS, cmd_grid),
    ("recommend", "top-K unseen item keys for the given user keys", _REC_DEFAULTS, cmd_recommend),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``cmlrec`` parser. With ``command``, only that subcommand gets
    its options; the others keep their names and help lines, which is all
    that parsing a ``command`` line or printing the top-level help reads."""
    parser = _Parser(prog="cmlrec", description="Metric-learning recommenders: preprocess, train, evaluate, recommend.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, defaults, func in _COMMANDS:
        p = subs.add_parser(name, help=help_text)
        if command in (None, name):
            _add_common(p, defaults)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so its first
    # non-option argument names the subcommand.
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, EvaluationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteGradientError, NonFiniteScoreError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
