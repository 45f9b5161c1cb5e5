"""End-to-end command-line behavior: pipelines, config merging, exit codes."""
from __future__ import annotations

import os
import re
import shutil

import pytest

from cmlrec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from cmlrec.datasets import load_split_dir
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

    def test_unparseable_flag_value(self, capsys):
        assert run_cli("train", "--dim", "abc") == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run_cli("transmogrify") == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        assert run_cli() == EXIT_USAGE


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

    def test_no_users_given(self, workspace, capsys):
        _, data, run = workspace
        code = run_cli("recommend", "--checkpoint", str(run / "model.ckpt"),
                       "--data", str(data), "--model", "hlr")
        assert code == EXIT_USAGE
        assert "no user keys" in capsys.readouterr().err


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
