"""End-to-end command-line behavior: pipelines, config merging, exit codes."""
from __future__ import annotations

import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from cmlrec import cli
from cmlrec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from cmlrec.datasets import load_split_dir
from cmlrec.evaluation import item_history_table
from cmlrec.parameters import init_parameters, load_checkpoint, save_checkpoint
from test_datasets import CORRUPTIONS, corrupt_dir


def run_cli(*argv: str) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse-level errors
        return int(exc.code or 0)


def write_ratings(path, num_users: int = 20, num_items: int = 15) -> None:
    lines = ["user\titem\trating"]
    for u in range(num_users):
        for j in range(10):
            lines.append(f"u{u}\ti{(u + j) % num_items}\t5")
        lines.append(f"u{u}\ti{(u + 10) % num_items}\t2")  # below threshold
    lines.append("u0\ti0\t5")  # duplicate
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ratings = root / "ratings.tsv"
    write_ratings(ratings)
    data = root / "data"
    assert run_cli("preprocess", "--input", str(ratings), "--out", str(data),
                   "--k-core", "3", "--seed", "0") == EXIT_OK
    run = root / "run"
    assert run_cli("train", "--data", str(data), "--out", str(run),
                   "--model", "hlr", "--dim", "8", "--n-relations", "3",
                   "--lr", "0.01", "--batch-size", "64", "--max-epochs", "3",
                   "--history-cap", "6", "--seed", "1") == EXIT_OK
    return root, data, run


class TestPreprocess:
    def test_stats_block_and_meta(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        out = tmp_path / "data2"
        code = run_cli("preprocess", "--input", str(root / "ratings.tsv"),
                       "--out", str(out), "--k-core", "3")
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert re.search(r"^users\s+20$", captured, re.M)
        assert re.search(r"^items\s+15$", captured, re.M)
        assert "density" in captured and "%" in captured
        assert re.search(r"train/validation/test\s+160/20/20", captured)
        split, meta = load_split_dir(str(out))
        assert split.num_users == 20
        assert meta["k_core"] == "3"
        assert meta["threshold"] == "4.0"

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = run_cli("preprocess", "--input", str(tmp_path / "nope.tsv"),
                       "--out", str(tmp_path / "d"))
        assert code == EXIT_DATA
        assert "not found" in capsys.readouterr().err

    def test_bad_ratios_is_usage_error(self, workspace, tmp_path, capsys):
        root, _, _ = workspace
        code = run_cli("preprocess", "--input", str(root / "ratings.tsv"),
                       "--out", str(tmp_path / "d"), "--ratios", "0.8,0.3,0.1")
        assert code == EXIT_USAGE
        assert "ratios" in capsys.readouterr().err

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,nan,0.5", "inf,0.1,0.1", "0,0.5,0.5", "1.2,-0.1,-0.1"])
    def test_non_finite_or_non_positive_ratios_are_usage_errors(self, workspace, tmp_path, capsys, ratios):
        root, _, _ = workspace
        out = tmp_path / "d"
        code = run_cli("preprocess", "--input", str(root / "ratings.tsv"), "--out", str(out), "--ratios", ratios)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "ratios must be three finite numbers > 0" in captured.err
        assert captured.out == "" and not out.exists()


class TestTrainCommand:
    def test_artifacts(self, workspace):
        _, _, run = workspace
        log = (run / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,valid_loss,seconds"
        assert len(log) == 4
        assert (run / "model.ckpt").stat().st_size > 0
        summary = (run / "summary.txt").read_text()
        assert "best_epoch=" in summary and "diverged=False" in summary
        config = (run / "config.txt").read_text()
        assert "model=hlr" in config and "dim=8" in config

    def test_train_log_matches_stdout(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(data), "--out", str(out),
                       "--model", "cml", "--dim", "4", "--lr", "0.01",
                       "--batch-size", "64", "--max-epochs", "2") == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("train_loss") >= 2
        assert "epochs_run=2" in stdout

    def test_divergence_exits_3_but_writes_artifacts(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "boom"
        code = run_cli("train", "--data", str(data), "--out", str(out),
                       "--model", "lrml", "--dim", "4", "--n-relations", "2",
                       "--lr", "1e200", "--batch-size", "64", "--max-epochs", "3")
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert "numerical failure" in captured.err
        assert "diverged=True" in (out / "summary.txt").read_text()
        assert (out / "model.ckpt").stat().st_size > 0

    def test_missing_required_option(self, capsys):
        assert run_cli("train", "--out", "/tmp/x") == EXIT_USAGE
        assert "missing required option: data" in capsys.readouterr().err

    def test_unknown_model(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        code = run_cli("train", "--data", str(data), "--out", str(tmp_path / "m"),
                       "--model", "svd")
        assert code == EXIT_USAGE
        assert "svd" in capsys.readouterr().err

    def test_invalid_hyperparameter(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        code = run_cli("train", "--data", str(data), "--out", str(tmp_path / "m"),
                       "--margin", "-1")
        assert code == EXIT_USAGE
        assert "margin" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--margin", "nan"), ("--margin", "inf"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-inf"),
    ])
    def test_non_finite_hyperparameter_is_usage_error(self, workspace, tmp_path, capsys, flag, value):
        _, data, _ = workspace
        out = tmp_path / "m"
        code = run_cli("train", "--data", str(data), "--out", str(out), "--model", "cml", f"{flag}={value}")
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert f"{flag[2:]} must be finite" in captured.err
        assert captured.out == "" and not out.exists()


class TestEvaluateCommand:
    def test_table_and_files(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr", "--k", "5",
                       "--history-cap", "6", "--out", str(out))
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert "NDCG@5" in stdout and "MRR@5" in stdout
        csv = (out / "metrics.csv").read_text()
        assert csv.splitlines()[0] == "metric,value"
        assert "recall," in csv
        report = (out / "report.txt").read_text()
        assert report in stdout
        assert "Users" in report

    def test_validation_phase(self, workspace, capsys):
        _, data, run = workspace
        code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr", "--phase", "validation")
        assert code == EXIT_OK
        assert "validation" in capsys.readouterr().out

    def test_bad_phase(self, workspace, capsys):
        _, data, run = workspace
        code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr", "--phase", "train")
        assert code == EXIT_USAGE

    def test_missing_checkpoint(self, workspace, capsys):
        _, data, _ = workspace
        code = run_cli("evaluate", "--checkpoint", "/tmp/no.ckpt",
                       "--data", str(data), "--model", "cml")
        assert code == EXIT_DATA
        assert "checkpoint not found" in capsys.readouterr().err

    def test_corrupt_key_count_is_refused_in_small_memory(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        shutil.copytree(data, tmp_path / "data")
        meta = tmp_path / "data" / "meta"
        meta.write_text(re.sub(r"^num_users=\d+$", "num_users=1000000", meta.read_text(), flags=re.M))
        tracemalloc.start()
        try:
            code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                           "--data", str(tmp_path / "data"), "--model", "hlr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        assert "expected 1000000 key rows, found 20" in capsys.readouterr().err
        assert peak < 1 << 20

    def test_missing_data_dir(self, workspace, capsys):
        _, _, run = workspace
        code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                       "--data", "/tmp/no-such-dir", "--model", "hlr")
        assert code == EXIT_DATA

    def test_shape_mismatch_names_both_shapes(self, workspace, tmp_path, capsys):
        root, _, run = workspace
        other_ratings = tmp_path / "small.tsv"
        write_ratings(other_ratings, num_users=12, num_items=10)
        other_data = tmp_path / "small"
        assert run_cli("preprocess", "--input", str(other_ratings),
                       "--out", str(other_data), "--k-core", "2") == EXIT_OK
        code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(other_data), "--model", "hlr")
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "20 users" in err and "12 users" in err

    def test_item_memory_model_rejects_plain_checkpoint(self, workspace, capsys):
        _, data, run = workspace
        code = run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr++")
        assert code == EXIT_DATA
        assert "item-side memory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    def test_non_finite_checkpoint_is_data_error(self, workspace, tmp_path, capsys, command):
        _, data, run = workspace
        store = load_checkpoint(run / "model.ckpt")
        store.user_vecs[:, 0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(store, bad)
        users = ["--users", "u3"] if command == "recommend" else []
        code = run_cli(command, "--checkpoint", str(bad), "--data", str(data), "--model", "hlr", *users)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "user_vecs" in err and str(bad) in err


class TestConfigResolution:
    def test_flag_overrides_config_file_overrides_default(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ndim=7\nlr=0.05\n\nmax_epochs=2\n")
        out = tmp_path / "run"
        code = run_cli("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(out), "--dim", "9", "--batch-size", "64")
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert re.search(r"^dim=9$", stdout, re.M)       # flag wins
        assert re.search(r"^lr=0.05$", stdout, re.M)     # config beats default
        assert re.search(r"^margin=0.5$", stdout, re.M)  # untouched default
        assert "# effective config" in stdout
        echoed = (out / "config.txt").read_text()
        assert "dim=9" in echoed and "lr=0.05" in echoed

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dimension=7\n")
        code = run_cli("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "x"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "unknown config key 'dimension'" in err
        assert "dim" in err  # lists the valid keys

    def test_malformed_config_line_reports_location(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dim=8\njust a line\n")
        code = run_cli("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert ":2:" in capsys.readouterr().err

    def test_key_set_twice_is_usage_error(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("dim=8\n# later\ndim=16\n")
        out = tmp_path / "x"
        code = run_cli("train", "--config", str(cfg), "--data", str(data), "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"{cfg}:3: config key 'dim' is already set on line 1" in err
        assert not out.exists()  # refused before anything is written

    def test_unparseable_flag_value(self, capsys):
        assert run_cli("train", "--dim", "abc") == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run_cli("transmogrify") == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        assert run_cli() == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["recommend", "--help"], ["train", "-h"], ["grid-search", "--help"],
        ["transmogrify"], ["recommend", "--bogus"], ["train", "--dim", "abc"], ["evaluate", "--k"],
        ["--bogus", "recommend", "--k", "3"], ["-h", "preprocess"],
    ], ids=lambda argv: " ".join(argv) or "none")
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys):
        # main adds only the named subcommand's options; help, usage errors
        # and exit codes stay those of the parser with every option.
        code = run_cli(*argv)
        seen = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert (code, seen.out, seen.err) == (int(exc.value.code or 0), full.out, full.err)
        assert code == (EXIT_OK if "-h" in argv or "--help" in argv else EXIT_USAGE)

    def test_one_subcommand_parses_like_the_full_parser(self):
        argv = ["recommend", "--checkpoint", "m.ckpt", "--data", "d", "--model", "hlr++", "--users", "a,b", "--k", "5"]
        assert vars(build_parser("recommend").parse_args(argv)) == vars(build_parser().parse_args(argv))


def help_options(help_text: str) -> list[str]:
    """The option entries of a ``--help`` text, whitespace collapsed, so
    neither the terminal width nor the section heading matters."""
    entries: list[list[str]] = []
    for line in help_text.split("\n\n", 1)[1].splitlines()[1:]:
        if line.startswith("  -"):
            entries.append(line.split())
        else:
            entries[-1].extend(line.split())
    return [" ".join(entry) for entry in entries]


_HELP_HEAD = ["-h, --help show this help message and exit",
              "--config CONFIG key=value config file; flags override it"]
_WORKERS = ("--workers WORKERS evaluation threads; any count gives the same results (train ignores it); "
            "on 2 cores, 2 threads speed up adacml and hlr++ the most")

# Each command's options in --help order, and the config it echoes when
# only the options it cannot run without are given (paths shown as <tmp>).
OPTION_TABLE = {
    "preprocess": (
        ["--input", "<tmp>/none.tsv", "--out", "<tmp>/out"], EXIT_DATA,
        ["--input INPUT raw interactions file (csv/tsv)",
         "--out OUT output directory or file",
         "--threshold THRESHOLD minimum rating/count kept as a positive",
         "--k-core K_CORE k-core filter order",
         "--ratios RATIOS train,validation,test ratios",
         "--seed SEED root random seed"],
        "input=<tmp>/none.tsv\nk_core=10\nout=<tmp>/out\nratios=0.8,0.1,0.1\nseed=0\nthreshold=4.0\n",
    ),
    "train": (
        ["--data", "<tmp>/none", "--out", "<tmp>/out"], EXIT_DATA,
        ["--data DATA preprocessed dataset directory",
         "--out OUT output directory or file",
         "--model MODEL model kind: cml, lrml, adacml, hlr, hlr++",
         "--dim DIM embedding dimension",
         "--n-relations N_RELATIONS relation memory slices",
         "--margin MARGIN hinge margin",
         "--lr LR Adam learning rate",
         "--batch-size BATCH_SIZE triplets per optimizer step",
         "--max-epochs MAX_EPOCHS training epoch budget",
         "--history-cap HISTORY_CAP attention history subsample size",
         "--seed SEED root random seed",
         _WORKERS],
        "batch_size=1000\ndata=<tmp>/none\ndim=100\nhistory_cap=50\nlr=0.001\nmargin=0.5\nmax_epochs=100\n"
        "model=cml\nn_relations=10\nout=<tmp>/out\nseed=0\nworkers=1\n",
    ),
    "evaluate": (
        [], EXIT_USAGE,
        ["--checkpoint CHECKPOINT model checkpoint path",
         "--data DATA preprocessed dataset directory",
         "--model MODEL model kind: cml, lrml, adacml, hlr, hlr++",
         "--phase PHASE evaluation phase: validation or test",
         "--k K ranking cutoff",
         "--history-cap HISTORY_CAP attention history subsample size",
         _WORKERS,
         "--out OUT output directory or file"],
        "checkpoint=None\ndata=None\nhistory_cap=50\nk=10\nmodel=None\nout=\nphase=test\nworkers=1\n",
    ),
    "grid-search": (
        ["--data", "<tmp>/none", "--out", "<tmp>/out"], EXIT_DATA,
        ["--data DATA preprocessed dataset directory",
         "--out OUT output directory or file",
         "--model MODEL model kind: cml, lrml, adacml, hlr, hlr++",
         "--lr-grid LR_GRID comma-separated learning rates",
         "--n-grid N_GRID comma-separated memory sizes",
         "--margin-grid MARGIN_GRID comma-separated margins",
         "--dim DIM embedding dimension",
         "--n-relations N_RELATIONS relation memory slices",
         "--batch-size BATCH_SIZE triplets per optimizer step",
         "--max-epochs MAX_EPOCHS training epoch budget",
         "--history-cap HISTORY_CAP attention history subsample size",
         "--seed SEED root random seed",
         "--k K ranking cutoff"],
        "batch_size=1000\ndata=<tmp>/none\ndim=100\nhistory_cap=50\nk=10\nlr_grid=0.0002,0.0005,0.00075,0.001\n"
        "margin_grid=0.2,0.5,0.75,1.0\nmax_epochs=100\nmodel=cml\nn_grid=5,10,20,50\nn_relations=10\n"
        "out=<tmp>/out\nseed=0\n",
    ),
    "recommend": (
        [], EXIT_USAGE,
        ["--checkpoint CHECKPOINT model checkpoint path",
         "--data DATA preprocessed dataset directory",
         "--model MODEL model kind: cml, lrml, adacml, hlr, hlr++",
         "--users USERS comma-separated user keys",
         "--users-file USERS_FILE file with one user key per line",
         "--k K ranking cutoff",
         "--history-cap HISTORY_CAP attention history subsample size",
         "--out OUT output directory or file"],
        "checkpoint=None\ndata=None\nhistory_cap=50\nk=10\nmodel=None\nout=\nusers=\nusers_file=\n",
    ),
}


class TestOptionTable:
    """Golden: no option is dropped, reordered, re-typed or re-defaulted."""

    @pytest.mark.parametrize("command", list(OPTION_TABLE))
    def test_help_lists_the_options_in_order(self, command, capsys):
        assert run_cli(command, "--help") == EXIT_OK
        assert help_options(capsys.readouterr().out) == _HELP_HEAD + OPTION_TABLE[command][2]

    @pytest.mark.parametrize("command", list(OPTION_TABLE))
    def test_default_config_echo(self, command, tmp_path, capsys):
        argv, code, _options, echo = OPTION_TABLE[command]
        assert run_cli(command, *(arg.replace("<tmp>", str(tmp_path)) for arg in argv)) == code
        assert capsys.readouterr().out.replace(str(tmp_path), "<tmp>") == "# effective config\n" + echo
        if "--out" in argv:  # the echo is also written next to the outputs
            assert (tmp_path / "out" / "config.txt").read_text().replace(str(tmp_path), "<tmp>") \
                == "# effective config\n" + echo


class TestRecommendCommand:
    def test_rank_lines_and_exclusions(self, workspace, capsys):
        _, data, run = workspace
        code = run_cli("recommend", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr", "--users", "u3",
                       "--history-cap", "6")
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        rows = [ln.split("\t") for ln in stdout.splitlines() if "\t" in ln]
        # u3 interacted with i3..i12, so only 5 candidates remain
        assert [int(r[1]) for r in rows] == [1, 2, 3, 4, 5]
        recommended = {r[2] for r in rows}
        assert recommended == {"i0", "i1", "i2", "i13", "i14"}

    def test_users_file_and_skipped_section(self, workspace, tmp_path, capsys):
        _, data, run = workspace
        user_list = tmp_path / "users.txt"
        user_list.write_text("u1\nghost\n")
        out_file = tmp_path / "recs.tsv"
        code = run_cli("recommend", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr",
                       "--users", "u0,missing", "--users-file", str(user_list),
                       "--history-cap", "6", "--out", str(out_file))
        assert code == EXIT_OK
        body = out_file.read_text()
        assert "u0\t1\t" in body and "u1\t1\t" in body
        assert "# skipped unknown user keys: missing, ghost" in body

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_data_dir_is_data_error(self, workspace, tmp_path, capsys, case):
        _, data, run = workspace
        bad = tmp_path / "bad"
        shutil.copytree(data, bad)
        corrupt_dir(bad, case)
        code = run_cli("recommend", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(bad), "--model", "hlr", "--users", "u3")
        assert code == EXIT_DATA
        assert str(bad) in capsys.readouterr().err

    def test_hlrpp_item_table_is_the_evaluate_table(self, workspace, tmp_path, monkeypatch, capsys):
        """recommend builds its hlr++ item histories one item at a time;
        they must be evaluate's rows, subsamples of the items over the cap
        included."""
        _, data, _ = workspace
        split, _ = load_split_dir(data)
        counts = split.train.item_users.lengths
        cap = int(np.median(counts))
        assert (counts > cap).any() and (counts <= cap).any()
        ckpt = tmp_path / "hlrpp.ckpt"
        save_checkpoint(init_parameters(split.num_users, split.num_items, 4, 2, with_item_memory=True, seed=0), ckpt)
        tables = []

        def spy(*args, item_histories=None, **kwargs):
            tables.append(item_histories)
            return real(*args, item_histories=item_histories, **kwargs)

        real = cli.rank_items
        monkeypatch.setattr(cli, "rank_items", spy)
        code = run_cli("recommend", "--checkpoint", str(ckpt), "--data", str(data), "--model", "hlr++",
                       "--users", "u3,u5", "--history-cap", str(cap))
        assert code == EXIT_OK and len(tables) == 2 and tables[0] is tables[1]
        assert [row.tolist() for row in tables[0]] == [row.tolist() for row in item_history_table(split, cap)]

    def test_no_users_given(self, workspace, capsys):
        _, data, run = workspace
        code = run_cli("recommend", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr")
        assert code == EXIT_USAGE
        assert "no user keys" in capsys.readouterr().err


class TestRankingOptions:
    """Out-of-range ranking options are usage errors, found before any data is loaded."""

    @pytest.mark.parametrize("command, flag, value", [
        ("evaluate", "--k", "0"),
        ("evaluate", "--k", "-1"),
        ("evaluate", "--history-cap", "-1"),
        ("recommend", "--k", "0"),
        ("recommend", "--k", "-2"),
        ("recommend", "--history-cap", "-1"),
        ("grid-search", "--k", "0"),
    ])
    def test_out_of_range_is_usage_error(self, workspace, tmp_path, capsys, command, flag, value):
        _, data, run = workspace
        if command == "grid-search":
            args = ["--out", str(tmp_path / "grid"), "--model", "cml", "--dim", "4", "--batch-size", "64",
                    "--max-epochs", "1", "--lr-grid", "0.01", "--n-grid", "2", "--margin-grid", "0.5"]
        else:
            args = ["--checkpoint", str(run / "model.ckpt"), "--model", "hlr", "--history-cap", "6"]
            if command == "recommend":
                args += ["--users", "u3"]
        code = run_cli(command, "--data", str(data), *args, flag, value)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert f"{flag[2:].replace('-', '_')} must be" in captured.err
        assert "\t" not in captured.out

    def test_train_rejects_zero_relations_for_every_head(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        code = run_cli("train", "--data", str(data), "--out", str(tmp_path / "m"),
                       "--model", "cml", "--n-relations", "0")
        assert code == EXIT_USAGE
        assert "n_relations must be >= 1" in capsys.readouterr().err


class TestOptionRanges:
    """Out-of-range values of the other options are usage errors too, found
    before any output is written or any data is read."""

    @pytest.mark.parametrize("command, flag, value", [
        ("preprocess", "--k-core", "0"),
        ("preprocess", "--threshold", "-1"),
        ("preprocess", "--seed", "-1"),
        ("train", "--workers", "-5"),
        ("train", "--seed", "-1"),
        ("grid-search", "--seed", "-1"),
        ("evaluate", "--workers", "0"),
        ("evaluate", "--workers", "-2"),
    ])
    def test_out_of_range_is_usage_error(self, workspace, tmp_path, capsys, command, flag, value):
        root, data, run = workspace
        args = {
            "preprocess": ["--input", str(root / "ratings.tsv")],
            "train": ["--data", str(data), "--model", "cml"],
            "evaluate": ["--data", str(data), "--checkpoint", str(run / "model.ckpt"), "--model", "hlr"],
            "grid-search": ["--data", str(data), "--model", "cml", "--dim", "4", "--max-epochs", "1",
                            "--lr-grid", "0.01", "--n-grid", "2", "--margin-grid", "0.5"],
        }[command]
        out = tmp_path / "out"
        code = run_cli(command, *args, "--out", str(out), flag, value)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert f"{flag[2:].replace('-', '_')} must be >= " in captured.err
        assert captured.out == "" and not out.exists()


class TestGridSearchCommand:
    def test_leaderboard_sorted_and_best_saved(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "grid"
        code = run_cli("grid-search", "--data", str(data), "--out", str(out),
                       "--model", "cml", "--dim", "4", "--batch-size", "64",
                       "--max-epochs", "2", "--lr-grid", "0.01,0.02",
                       "--n-grid", "2", "--margin-grid", "0.5,1.0", "--k", "5")
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        rows = (out / "leaderboard.csv").read_text().splitlines()
        assert rows[0] == "rank,lr,n_relations,margin,ndcg,valid_loss,best_epoch"
        assert len(rows) == 1 + 4  # 2 lrs x 2 margins; memory axis collapsed for cml
        ndcgs = [float(r.split(",")[4]) for r in rows[1:]]
        assert ndcgs == sorted(ndcgs, reverse=True)
        assert (out / "model.ckpt").stat().st_size > 0
        best = (out / "best_config.txt").read_text()
        assert "model=cml" in best and "best_ndcg=" in best
        assert "4 cells ranked" in stdout


    @pytest.mark.parametrize("flag, value, message", [
        ("--n-grid", "inf", "n_grid: expected comma-separated int values"),
        ("--n-grid", "nan", "n_grid: expected comma-separated int values"),
        ("--n-grid", "2.7", "n_grid: expected comma-separated int values"),
        ("--n-grid", "2,0", "n_relations must be >= 1"),
        ("--margin-grid", "0.5,-1", "margin must be finite and > 0"),
        ("--margin-grid", "nan", "margin must be finite and > 0"),
        ("--lr-grid", "0.01,inf", "lr must be finite and >= 0"),
        ("--lr-grid", "x", "lr_grid: expected comma-separated float values"),
    ])
    def test_bad_grid_value_is_usage_error(self, workspace, tmp_path, capsys, flag, value, message):
        _, data, _ = workspace
        out = tmp_path / "grid"
        grid = {"--lr-grid": "0.01", "--n-grid": "2", "--margin-grid": "0.5", flag: value}
        code = run_cli("grid-search", "--data", str(data), "--out", str(out), "--model", "hlr", "--dim", "4",
                       "--batch-size", "64", "--max-epochs", "1", *(arg for item in grid.items() for arg in item))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert message in captured.err
        assert captured.out == "" and not out.exists()


class TestReproducibility:
    def test_same_seed_runs_are_byte_identical(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        outs = []
        for tag in ("a", "b"):
            run = tmp_path / f"run_{tag}"
            assert run_cli("train", "--data", str(data), "--out", str(run),
                           "--model", "adacml", "--dim", "6", "--lr", "0.01",
                           "--batch-size", "64", "--max-epochs", "3",
                           "--history-cap", "6", "--seed", "7") == EXIT_OK
            ev = tmp_path / f"eval_{tag}"
            assert run_cli("evaluate", "--checkpoint", str(run / "model.ckpt"),
                           "--data", str(data), "--model", "adacml", "--k", "5",
                           "--history-cap", "6", "--out", str(ev)) == EXIT_OK
            outs.append((run, ev))
        capsys.readouterr()
        (run_a, ev_a), (run_b, ev_b) = outs
        assert (run_a / "model.ckpt").read_bytes() == (run_b / "model.ckpt").read_bytes()
        assert (ev_a / "metrics.csv").read_bytes() == (ev_b / "metrics.csv").read_bytes()
        log_a = [ln.rsplit(",", 1)[0] for ln in (run_a / "train_log.csv").read_text().splitlines()]
        log_b = [ln.rsplit(",", 1)[0] for ln in (run_b / "train_log.csv").read_text().splitlines()]
        assert log_a == log_b  # losses identical; wall-clock column dropped
