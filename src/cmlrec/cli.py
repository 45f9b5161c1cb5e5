"""Command-line surface: preprocess, train, evaluate, grid-search, recommend.

Configuration is declarative. Every option is declared once, in
``_OPTIONS``, with its type, default and help; ``_COMMANDS`` lists the
options each command takes and the few defaults a command changes. A flat
key=value config file can override the defaults (a key set twice is a usage
error), and explicit command-line flags win over both. Each command echoes
its fully-resolved effective config before doing work, so any run can be
re-created from its output alone.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Callable, Sequence, TypeVar

from . import rng
from .datasets import (
    DataError,
    _Rows,
    dataset_stats,
    item_history,
    k_core_filter,
    load_interactions,
    load_split_dir,
    save_split_dir,
    split_dataset,
)
from .evaluation import EvaluationError, check_compatible, evaluate, rank_items, ranking_history, report_csv, report_table
from .models import ModelKind, NonFiniteScoreError
from .parameters import (
    CheckpointError,
    NonFiniteGradientError,
    load_checkpoint,
    save_checkpoint,
)
from .training import GridCell, Hyperparams, grid_cells, grid_search, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_Number = TypeVar("_Number", int, float)


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


# Every option once: name -> (type, default, help). The flag is ``--name``
# with ``_`` spelt ``-``. Training options default to ``Hyperparams()``'s
# fields, so the command line and the library cannot disagree.
_HP = Hyperparams()
_OPTIONS: dict[str, tuple[type, object, str]] = {
    "input": (str, None, "raw interactions file (csv/tsv)"),
    "data": (str, None, "preprocessed dataset directory"),
    "out": (str, None, "output directory or file"),
    "checkpoint": (str, None, "model checkpoint path"),
    "model": (str, _HP.kind.value, "model kind: cml, lrml, adacml, hlr, hlr++"),
    "threshold": (float, 4.0, "minimum rating/count kept as a positive"),
    "k_core": (int, 10, "k-core filter order"),
    "ratios": (str, "0.8,0.1,0.1", "train,validation,test ratios"),
    "seed": (int, _HP.seed, "root random seed"),
    "dim": (int, _HP.dim, "embedding dimension"),
    "n_relations": (int, _HP.n_relations, "relation memory slices"),
    "margin": (float, _HP.margin, "hinge margin"),
    "lr": (float, _HP.lr, "Adam learning rate"),
    "batch_size": (int, _HP.batch_size, "triplets per optimizer step"),
    "max_epochs": (int, _HP.max_epochs, "training epoch budget"),
    "history_cap": (int, _HP.history_cap, "attention history subsample size"),
    "workers": (int, 1, "evaluation threads; any count gives the same results (train ignores it); "
                        "on 2 cores, 2 threads speed up adacml and hlr++ the most"),
    "k": (int, 10, "ranking cutoff"),
    "phase": (str, "test", "evaluation phase: validation or test"),
    "lr_grid": (str, "0.0002,0.0005,0.00075,0.001", "comma-separated learning rates"),
    "n_grid": (str, "5,10,20,50", "comma-separated memory sizes"),
    "margin_grid": (str, "0.2,0.5,0.75,1.0", "comma-separated margins"),
    "users": (str, "", "comma-separated user keys"),
    "users_file": (str, "", "file with one user key per line"),
}


def _parse_config_file(path: str) -> dict[str, str]:
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in set_on:
                raise UsageError(f"{path}:{ln}: config key {key!r} is already set on line {set_on[key]}")
            set_on[key] = ln
            out[key] = value.strip()
    return out


def _coerce(key: str, text: str) -> object:
    typ = _OPTIONS[key][0]
    try:
        return typ(text)
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {text!r} as {typ.__name__}") from None


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """The command's defaults < config file < explicit flags; config keys
    the command does not take are rejected."""
    _help, keys, overrides, _func = _COMMANDS[args.command]
    merged = {key: overrides.get(key, _OPTIONS[key][1]) for key in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, text in _parse_config_file(config_path).items():
            if key not in merged:
                raise UsageError(f"unknown config key {key!r} (valid: {', '.join(sorted(merged))})")
            merged[key] = _coerce(key, text)
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _echo_config(cfg: dict[str, object], out_dir: str | None = None) -> None:
    lines = ["# effective config"]
    for key in sorted(cfg):
        lines.append(f"{key}={cfg[key]}")
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
    """``Hyperparams`` from the fields ``cfg`` sets; the others keep their defaults."""
    fields = (f.name for f in dataclasses.fields(Hyperparams) if f.name != "kind")
    hp = Hyperparams(kind=kind, **{key: cfg[key] for key in fields if key in cfg})
    try:
        hp.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return hp


def _at_least(cfg: dict[str, object], key: str, low: _Number) -> _Number:
    """``cfg[key]`` as the type of ``low``; a value below ``low`` (or NaN)
    is a usage error."""
    value = type(low)(cfg[key])
    if not value >= low:
        raise UsageError(f"{key} must be >= {low}, got {value}")
    return value


def _ranking_options(cfg: dict[str, object]) -> tuple[int, int]:
    """The ranking cutoff ``k`` (>= 1) and ``history_cap`` (>= 0)."""
    return _at_least(cfg, "k", 1), _at_least(cfg, "history_cap", 0)


def _number_list(text: str, key: str, number: type[_Number]) -> list[_Number]:
    """Comma-separated values of type ``number``; ``int`` takes integers only."""
    try:
        values = [number(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{key}: expected comma-separated {number.__name__} values, got {text!r}") from None
    if not values:
        raise UsageError(f"{key}: empty list")
    return values


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
    check_compatible(store, kind, split)
    return kind, store


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    input_path = str(_require(cfg, "input"))
    out_dir = str(_require(cfg, "out"))
    ratios = _number_list(str(cfg["ratios"]), "ratios", float)
    if len(ratios) != 3 or not all(math.isfinite(r) and r > 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise UsageError(f"ratios must be three finite numbers > 0 summing to 1, got {cfg['ratios']!r}")
    k_core, threshold, seed = _at_least(cfg, "k_core", 1), _at_least(cfg, "threshold", 0.0), _at_least(cfg, "seed", 0)
    _echo_config(cfg, out_dir)
    if not os.path.isfile(input_path):
        raise DataError(f"input file not found: {input_path}")
    raw = load_interactions(input_path, threshold=threshold)
    ds = k_core_filter(raw, k=k_core)
    split = split_dataset(ds, ratios=(ratios[0], ratios[1], ratios[2]), seed=seed)
    save_split_dir(split, out_dir, k=k_core, threshold=threshold)
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


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    data_dir = str(_require(cfg, "data"))
    out_dir = str(_require(cfg, "out"))
    kind = _model_kind(cfg)
    hp = _hyperparams(cfg, kind)
    _at_least(cfg, "workers", 1)
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


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    k, cap = _ranking_options(cfg)
    workers = _at_least(cfg, "workers", 1)
    phase = str(cfg["phase"])
    if phase not in ("validation", "test"):
        raise UsageError(f"phase must be validation or test, got {phase!r}")
    out_dir = str(cfg["out"]) or None
    _echo_config(cfg, out_dir)
    split, _meta = _load_data(str(_require(cfg, "data")))
    kind, store = _load_model(cfg, split)
    report = evaluate(store, kind, split, phase=phase, k=k, history_cap=cap, workers=workers)
    table = report_table(report)
    print(table, end="")
    if out_dir is not None:
        with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(table)
        print(f"wrote {out_dir}/metrics.csv and {out_dir}/report.txt")
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    k, _cap = _ranking_options(cfg)
    data_dir = str(_require(cfg, "data"))
    out_dir = str(_require(cfg, "out"))
    kind = _model_kind(cfg)
    base = _hyperparams(cfg, kind)
    lr_grid = _number_list(str(cfg["lr_grid"]), "lr_grid", float)
    n_grid = _number_list(str(cfg["n_grid"]), "n_grid", int)
    margin_grid = _number_list(str(cfg["margin_grid"]), "margin_grid", float)
    # A cell that train would refuse is a usage error before any output, not a failed cell.
    for lr, n, margin in grid_cells(kind, lr_grid, n_grid, margin_grid, default_n=base.n_relations):
        _hyperparams({**cfg, "lr": lr, "n_relations": n, "margin": margin}, kind)
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


def cmd_recommend(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
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
        item_table = _Rows.of([
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


# name -> (help, options in --help order, defaults that differ from _OPTIONS', handler)
_COMMANDS: dict[str, tuple[str, tuple[str, ...], dict[str, object], Callable[[argparse.Namespace], int]]] = {
    "preprocess": ("binarize, k-core filter, split, and write a dataset directory",
                   ("input", "out", "threshold", "k_core", "ratios", "seed"), {}, cmd_preprocess),
    "train": ("train one model and write its best-epoch checkpoint",
              ("data", "out", "model", "dim", "n_relations", "margin", "lr", "batch_size", "max_epochs",
               "history_cap", "seed", "workers"), {}, cmd_train),
    "evaluate": ("rank the full catalog and report the metrics",
                 ("checkpoint", "data", "model", "phase", "k", "history_cap", "workers", "out"),
                 {"model": None, "out": ""}, cmd_evaluate),
    "grid-search": ("train a grid of configs and rank them by validation NDCG",
                    ("data", "out", "model", "lr_grid", "n_grid", "margin_grid", "dim", "n_relations",
                     "batch_size", "max_epochs", "history_cap", "seed", "k"), {}, cmd_grid),
    "recommend": ("top-K unseen item keys for the given user keys",
                  ("checkpoint", "data", "model", "users", "users_file", "k", "history_cap", "out"),
                  {"model": None, "out": ""}, cmd_recommend),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``cmlrec`` parser. With ``command``, only that subcommand gets
    its options; the others keep their names and help lines, which is all
    that parsing a ``command`` line or printing the top-level help reads."""
    parser = _Parser(prog="cmlrec", description="Metric-learning recommenders: preprocess, train, evaluate, recommend.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, keys, _overrides, func) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        if command in (None, name):
            p.add_argument("--config", default=None, help="key=value config file; flags override it")
            for key in keys:
                typ, _default, key_help = _OPTIONS[key]
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=None, help=key_help)
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
