"""Parsing, k-core filtering, splitting, stats, and directory round-trips."""
from __future__ import annotations

import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlrec import datasets
from cmlrec.datasets import (
    DataError,
    EmptyDatasetError,
    InteractionDataset,
    ParseError,
    RawInteractions,
    dataset_stats,
    interaction_density,
    item_history,
    k_core_filter,
    load_interactions,
    load_split_dir,
    save_split_dir,
    split_dataset,
    user_history,
)


def _raw(pairs) -> RawInteractions:
    return RawInteractions(pairs=tuple(pairs), threshold=0.0)


# Ways to damage a saved dataset directory, each with the files that the
# load error must name.
CORRUPTIONS = {
    "pair_repeated_in_one_view": ["train.tsv"],
    "pair_in_two_views": ["train.tsv", "test.tsv"],
    "meta_count_differs": ["valid.tsv", "meta"],
    "key_index_listed_twice": ["item_keys.tsv"],
}

# View-file texts on which np.loadtxt and the per-line parser part ways, read
# as a 12 x 12 catalog, each with what loading must give: the pairs, or the
# 1-based line of the ParseError. np.loadtxt accepts 1- and 3-column rows,
# negative ids and a field ending in "\x1c", warns on a file without rows, and
# rejects whitespace-only lines, a trailing tab, underscores and non-ASCII
# digits.
VIEW_TEXTS = {
    "plain": ("0\t1\n2\t3\n", [(0, 1), (2, 3)]),
    "no_final_newline": ("0\t1\n2\t3", [(0, 1), (2, 3)]),
    "crlf": ("0\t1\r\n2\t3\r\n", [(0, 1), (2, 3)]),
    "empty_lines": ("\n0\t1\n\n2\t3\n\n", [(0, 1), (2, 3)]),
    "spaces_around_ids": (" 0 \t 1 \n", [(0, 1)]),
    "signs_and_leading_zeros": ("+1\t007\n-0\t0\n", [(1, 7), (0, 0)]),
    "empty_file": ("", []),
    "blank_only": ("\n \n\t\n", []),
    "whitespace_only_line": ("0\t1\n \t \n2\t3\n", [(0, 1), (2, 3)]),
    "trailing_tab": ("0\t1\t\n2\t3\n", [(0, 1), (2, 3)]),
    "leading_tab": ("\t0\t1\n", [(0, 1)]),
    "underscore": ("1_0\t1\n", [(10, 1)]),
    "non_ascii_digits": ("\u0661\t\uff12\n", [(1, 2)]),
    "one_column": ("1\n2\n", 1),
    "three_columns": ("1\t2\t3\n", 1),
    "column_count_changes": ("0\t1\n2\n", 2),
    "negative_id": ("0\t1\n-1\t2\n", 2),
    "user_out_of_range": ("0\t1\n12\t0\n", 2),
    "item_out_of_range": ("0\t12\n", 1),
    "overflow": ("0\t1\n99999999999999999999\t0\n", 2),
    "float_id": ("0\t1\n1.0\t2\n", 2),
    "comment_line": ("# users\n0\t1\n", 1),
    "separator_in_field": ("0\t1\n0\x1c\t0\n", 2),
}


class TestLoadInteractions:
    def test_threshold_keeps_at_or_above(self):
        rows = ["a,x,5", "a,y,3", "b,x,4"]
        raw = load_interactions(rows, threshold=4)
        assert set(raw.pairs) == {("a", "x"), ("b", "x")}

    def test_duplicates_collapse(self):
        raw = load_interactions(["a,x,4", "a,x,5"], threshold=4)
        assert raw.pairs == (("a", "x"),)

    def test_play_count_threshold(self):
        raw = load_interactions(["u,s,6", "u,t,5"], threshold=6)
        assert set(raw.pairs) == {("u", "s")}

    def test_missing_value_column_is_positive(self):
        raw = load_interactions(["a,x", "b,y"], threshold=4)
        assert set(raw.pairs) == {("a", "x"), ("b", "y")}

    def test_threshold_zero_keeps_everything(self):
        raw = load_interactions(["a,x,0", "b,y,1"], threshold=0)
        assert len(raw.pairs) == 2

    def test_tab_delimiter_autodetected(self):
        raw = load_interactions(["a\tx\t5", "b\ty\t5"], threshold=4)
        assert set(raw.pairs) == {("a", "x"), ("b", "y")}

    def test_header_autodetected(self):
        raw = load_interactions(["user,item,rating", "a,x,5"], threshold=4)
        assert raw.pairs == (("a", "x"),)

    def test_has_header_override(self):
        # first row would pass the numeric sniff, force it to be a header
        raw = load_interactions(["9,9,9", "a,x,5"], threshold=4, has_header=True)
        assert raw.pairs == (("a", "x"),)

    def test_extra_columns_ignored(self):
        raw = load_interactions(["a,x,5,978300760"], threshold=4)
        assert raw.pairs == (("a", "x"),)

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            load_interactions(["a,x,5", "justonefield"], threshold=4)
        assert err.value.line_number == 2

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            load_interactions(["a,x,5", "b,y,notanumber"], threshold=4)
        assert err.value.line_number == 2

    def test_empty_result_raises(self):
        with pytest.raises(EmptyDatasetError):
            load_interactions(["a,x,1"], threshold=4)

    def test_blank_lines_skipped(self):
        raw = load_interactions(["", "a,x,5", "   ", "b,y,5"], threshold=4)
        assert len(raw.pairs) == 2

    def test_file_source(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,x,5\nb,y,4\n")
        raw = load_interactions(p, threshold=4)
        assert len(raw.pairs) == 2


class TestKCoreFilter:
    def test_cascading_removal_empties(self):
        raw = _raw([("a", "x"), ("a", "y"), ("b", "x"), ("c", "y")])
        with pytest.raises(EmptyDatasetError):
            k_core_filter(raw, k=2)

    def test_complete_bipartite_unchanged(self):
        pairs = [(f"u{i}", f"v{j}") for i in range(3) for j in range(3)]
        ds = k_core_filter(_raw(pairs), k=3)
        assert ds.num_users == 3 and ds.num_items == 3
        assert ds.num_interactions == 9

    def test_k1_keeps_everything(self):
        pairs = [("a", "x"), ("b", "y"), ("c", "x")]
        ds = k_core_filter(_raw(pairs), k=1)
        assert ds.num_interactions == 3

    def test_adjacency_transpose_consistency(self):
        pairs = [(f"u{i}", f"v{j}") for i in range(4) for j in range(5) if (i + j) % 2 == 0]
        ds = k_core_filter(_raw(pairs), k=1)
        expected = sorted((ds.user_index[u], ds.item_index[v]) for u, v in pairs)
        shuffled = [expected[i] for i in np.random.default_rng(3).permutation(len(expected))]
        views = [
            (ds, expected),
            (InteractionDataset.from_pairs(ds.num_users, ds.num_items, shuffled, ds.user_keys, ds.item_keys), expected),
            (InteractionDataset.from_pairs(ds.num_users, ds.num_items, [], ds.user_keys, ds.item_keys), []),
        ]
        for view, want in views:
            assert list(view.iter_pairs()) == want
            assert view.pair_array().dtype == np.int64
            assert view.pair_array().tolist() == [list(p) for p in want]
            assert view.num_interactions == len(want)
            assert len(view.user_items) == ds.num_users and len(view.item_users) == ds.num_items
            for u in range(view.num_users):
                assert view.user_items[u].dtype == np.int64
                assert view.user_items[u].tolist() == [v for uu, v in want if uu == u]
            for v in range(view.num_items):
                assert view.item_users[v].dtype == np.int64
                assert view.item_users[v].tolist() == [u for u, vv in want if vv == v]
            assert view.user_items[-1].tolist() == view.user_items[view.num_users - 1].tolist()
            for row in (-view.num_users - 1, view.num_users):
                with pytest.raises(IndexError):
                    view.user_items[row]

    def test_key_maps_are_bijections(self):
        pairs = [("anna", "pie"), ("anna", "tea"), ("bob", "pie"), ("bob", "tea")]
        ds = k_core_filter(_raw(pairs), k=2)
        for key, idx in ds.user_index.items():
            assert ds.user_keys[idx] == key
        for key, idx in ds.item_index.items():
            assert ds.item_keys[idx] == key

    def test_randomized_fixed_point_matches_reference(self):
        # independent reference: iterate whole-graph filtering to a fixed point
        def reference_core(pairs, k):
            kept = set(pairs)
            while True:
                ud, vd = {}, {}
                for u, v in kept:
                    ud[u] = ud.get(u, 0) + 1
                    vd[v] = vd.get(v, 0) + 1
                nxt = {(u, v) for (u, v) in kept if ud[u] >= k and vd[v] >= k}
                if nxt == kept:
                    return kept
                kept = nxt

        gen = np.random.default_rng(101)
        for case in range(120):
            n_u = int(gen.integers(2, 12))
            n_v = int(gen.integers(2, 12))
            n_edges = int(gen.integers(1, n_u * n_v + 1))
            idx = gen.choice(n_u * n_v, size=n_edges, replace=False)
            pairs = [(f"u{e // n_v}", f"v{e % n_v}") for e in idx]
            k = int(gen.integers(1, 5))
            expected = reference_core(pairs, k)
            if not expected:
                with pytest.raises(EmptyDatasetError):
                    k_core_filter(_raw(pairs), k)
                continue
            ds = k_core_filter(_raw(pairs), k)
            got = {(ds.user_keys[u], ds.item_keys[v]) for u, v in ds.iter_pairs()}
            assert got == expected, f"case {case}"
            assert min(len(a) for a in ds.user_items) >= k
            assert min(len(a) for a in ds.item_users) >= k


def _dense_dataset(gen: np.random.Generator, n_u=None, n_v=None, p=0.5) -> InteractionDataset:
    n_u = n_u or int(gen.integers(3, 15))
    n_v = n_v or int(gen.integers(3, 15))
    pairs = [(u, v) for u in range(n_u) for v in range(n_v) if gen.random() < p]
    used_u = {u for u, _ in pairs}
    used_v = {v for _, v in pairs}
    for u in range(n_u):
        if u not in used_u:
            pairs.append((u, int(gen.integers(n_v))))
    for v in range(n_v):
        if v not in used_v:
            pairs.append((int(gen.integers(n_u)), v))
    return InteractionDataset.from_pairs(
        n_u, n_v, sorted(set(pairs)), [f"u{i}" for i in range(n_u)], [f"v{j}" for j in range(n_v)]
    )


class TestSplitDataset:
    def test_ten_interactions_split_8_1_1(self):
        pairs = [(0, v) for v in range(10)] + [(1, v) for v in range(10)]
        ds = InteractionDataset.from_pairs(2, 10, pairs, ["a", "b"], [f"v{j}" for j in range(10)])
        split = split_dataset(ds, seed=3)
        for u in (0, 1):
            assert len(split.train.user_items[u]) == 8
            assert len(split.validation.user_items[u]) == 1
            assert len(split.test.user_items[u]) == 1

    def test_small_user_all_train(self, caplog):
        pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
        ds = InteractionDataset.from_pairs(2, 3, pairs, ["a", "b"], ["x", "y", "z"])
        with caplog.at_level("WARNING", logger="cmlrec.datasets"):
            split = split_dataset(ds, seed=0)
        assert len(split.train.user_items[0]) == 2
        assert len(split.validation.user_items[0]) == 0
        assert len(split.test.user_items[0]) == 0
        assert any("fewer than 3" in rec.message for rec in caplog.records)

    def test_determinism(self):
        gen = np.random.default_rng(5)
        ds = _dense_dataset(gen, n_u=8, n_v=20, p=0.6)
        a = split_dataset(ds, seed=9)
        b = split_dataset(ds, seed=9)
        assert np.array_equal(a.train.pair_array(), b.train.pair_array())
        assert np.array_equal(a.validation.pair_array(), b.validation.pair_array())
        assert np.array_equal(a.test.pair_array(), b.test.pair_array())

    def test_different_seed_changes_assignment(self):
        gen = np.random.default_rng(6)
        ds = _dense_dataset(gen, n_u=10, n_v=30, p=0.7)
        a = split_dataset(ds, seed=1)
        b = split_dataset(ds, seed=2)
        assert not np.array_equal(a.train.pair_array(), b.train.pair_array())

    def test_randomized_partition_properties(self):
        gen = np.random.default_rng(77)
        for case in range(120):
            ds = _dense_dataset(gen)
            seed = int(gen.integers(1000))
            split = split_dataset(ds, seed=seed)
            total = 0
            for u in range(ds.num_users):
                orig = set(int(v) for v in ds.user_items[u])
                tr = set(int(v) for v in split.train.user_items[u])
                va = set(int(v) for v in split.validation.user_items[u])
                te = set(int(v) for v in split.test.user_items[u])
                # partition: disjoint and recover the original
                assert tr | va | te == orig, f"case {case} user {u}"
                assert not (tr & va) and not (tr & te) and not (va & te)
                n = len(orig)
                if n < 3:
                    assert not va and not te
                else:
                    assert len(va) == int(n * 0.1)
                    assert len(te) == int(n * 0.1)
                if va or te:
                    assert tr, "held-out user lost its train interactions"
                total += n
            assert total == ds.num_interactions

    def test_all_user_items_is_union(self):
        gen = np.random.default_rng(8)
        ds = _dense_dataset(gen, n_u=6, n_v=25, p=0.6)
        split = split_dataset(ds, seed=4)
        for u in range(ds.num_users):
            assert np.array_equal(split.all_user_items(u), ds.user_items[u])

    def test_bad_ratios_rejected(self):
        ds = _dense_dataset(np.random.default_rng(1), n_u=4, n_v=6, p=0.9)
        with pytest.raises(ValueError):
            split_dataset(ds, ratios=(0.5, 0.5, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_dataset(ds, ratios=(1.0, 0.0, 0.0), seed=0)


class TestStats:
    def test_density_formula_large_counts(self):
        d = interaction_density(129757, 11508, 9911879)
        assert abs(d * 100 - 0.664) < 5e-4

    def test_complete_bipartite(self):
        pairs = [(u, v) for u in range(2) for v in range(2)]
        ds = InteractionDataset.from_pairs(2, 2, pairs, ["a", "b"], ["x", "y"])
        stats = dataset_stats(ds)
        assert stats.density == 1.0
        assert stats.median_interactions_per_user == 2

    def test_lower_median_convention(self):
        pairs = []
        for u, deg in enumerate([1, 2, 3, 4]):
            pairs.extend((u, v) for v in range(deg))
        ds = InteractionDataset.from_pairs(4, 4, pairs, list("abcd"), list("wxyz"))
        assert dataset_stats(ds).median_interactions_per_user == 2


class TestHistories:
    def _split(self):
        pairs = [(0, v) for v in range(10)] + [(1, 0), (1, 1), (1, 2)] + [(2, 5)]
        ds = InteractionDataset.from_pairs(3, 10, pairs, list("abc"), [f"v{j}" for j in range(10)])
        return split_dataset(ds, seed=11)

    def test_exclusion(self):
        split = self._split()
        items = split.train.user_items[1]
        hist = user_history(split, 1, exclude=int(items[0]), cap=50)
        assert int(items[0]) not in hist
        assert len(hist) == len(items) - 1

    def test_cap_subsamples_within_history(self):
        split = self._split()
        gen = np.random.default_rng(2)
        full = split.train.user_items[0]
        hist = user_history(split, 0, cap=3, gen=gen)
        assert len(hist) == 3
        assert len(set(hist.tolist())) == 3
        assert set(hist.tolist()) <= set(full.tolist())

    def test_empty_history_signal(self):
        pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 0)]
        ds = InteractionDataset.from_pairs(2, 3, pairs, ["a", "b"], ["x", "y", "z"])
        split = split_dataset(ds, seed=0)
        only = split.train.user_items[0]
        if len(only) == 1:
            hist = user_history(split, 0, exclude=int(only[0]), cap=50)
            assert len(hist) == 0

    def test_item_history_mirrors(self):
        split = self._split()
        users = split.train.item_users[0]
        if len(users) > 0:
            hist = item_history(split, 0, exclude=int(users[0]), cap=50)
            assert int(users[0]) not in hist

    def test_cap_without_generator_rejected(self):
        split = self._split()
        with pytest.raises(ValueError):
            user_history(split, 0, cap=2, gen=None)


class TestDirectoryRoundTrip:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(13)
        ds = _dense_dataset(gen, n_u=7, n_v=18, p=0.5)
        split = split_dataset(ds, seed=21)
        out = tmp_path / "data"
        save_split_dir(split, out, k=3, threshold=4.0)
        loaded, meta = load_split_dir(out)
        assert loaded.seed == 21
        assert meta["k_core"] == "3"
        assert meta["threshold"] == "4.0"
        assert int(meta["num_train"]) == split.train.num_interactions
        for name in ("train", "validation", "test"):
            a = getattr(split, name)
            b = getattr(loaded, name)
            assert np.array_equal(a.pair_array(), b.pair_array())
        assert loaded.train.user_keys == split.train.user_keys
        assert loaded.train.item_keys == split.train.item_keys
        assert np.array_equal(loaded.pair_keys(), split.pair_keys())
        assert not loaded.pair_keys().flags.writeable
        for u in range(split.num_users):
            assert np.array_equal(loaded.all_user_items(u), split.all_user_items(u))
        assert loaded.train.user_index == split.train.user_index
        assert loaded.train.item_index == split.train.item_index

    def test_saved_views_parse_in_bulk(self, tmp_path):
        split = split_dataset(_dense_dataset(np.random.default_rng(17), n_u=8, n_v=30, p=0.6), seed=3)
        assert min(getattr(split, name).num_interactions for name in ("train", "validation", "test")) > 0
        save_split_dir(split, tmp_path, k=1, threshold=0.0)
        with mock.patch.object(datasets, "_read_pairs_by_line", side_effect=AssertionError("per-line parse")):
            loaded, _ = load_split_dir(tmp_path)
        assert np.array_equal(loaded.train.pair_array(), split.train.pair_array())

    def test_view_files_match_a_loop_over_user_items(self, tmp_path):
        split = split_dataset(_dense_dataset(np.random.default_rng(15), n_u=9, n_v=12, p=0.5), seed=2)
        save_split_dir(split, tmp_path, k=1, threshold=0.0)
        for name, fname in (("train", "train.tsv"), ("validation", "valid.tsv"), ("test", "test.tsv")):
            view = getattr(split, name)
            expected = "".join(f"{u}\t{int(v)}\n" for u in range(view.num_users) for v in view.user_items[u])
            assert (tmp_path / fname).read_bytes() == expected.encode()

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupt_directory_rejected(self, tmp_path, case):
        split = split_dataset(_dense_dataset(np.random.default_rng(16), n_u=6, n_v=10, p=0.7), seed=1)
        save_split_dir(split, tmp_path, k=1, threshold=0.0)
        corrupt_dir(tmp_path, case)
        with pytest.raises(DataError) as err:
            load_split_dir(tmp_path)
        for fname in CORRUPTIONS[case]:
            assert str(tmp_path / fname) in str(err.value)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(DataError):
            load_split_dir(tmp_path / "nope")

    def test_corrupt_view_reports_line(self, tmp_path):
        gen = np.random.default_rng(14)
        split = split_dataset(_dense_dataset(gen, n_u=5, n_v=8, p=0.8), seed=0)
        out = tmp_path / "data"
        save_split_dir(split, out, k=1, threshold=0.0)
        (out / "train.tsv").write_text("0\t0\nbroken line\n")
        with pytest.raises(ParseError) as err:
            load_split_dir(out)
        assert err.value.line_number == 2


def _load_view_text(path, text: str, parse) -> np.ndarray | ParseError:
    """``parse`` of ``text``, or its ParseError; a warning fails the test
    whatever filter the run sets."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(str(path), 12, 12)
        except ParseError as exc:
            result = exc
    assert [str(w.message) for w in caught] == []
    return result


class TestViewParsing:
    @pytest.mark.parametrize("case", sorted(VIEW_TEXTS))
    def test_bulk_parse_matches_the_per_line_parser(self, tmp_path, case):
        text, expected = VIEW_TEXTS[case]
        path = tmp_path / "train.tsv"
        by_line = _load_view_text(path, text, datasets._read_pairs_by_line)
        got = _load_view_text(path, text, datasets._read_pairs)
        if isinstance(expected, int):
            for err in (by_line, got):
                assert isinstance(err, ParseError)
                assert err.line_number == expected
                assert str(path) in str(err)
            assert str(got) == str(by_line)
        else:
            for pairs in (by_line, got):
                assert isinstance(pairs, np.ndarray) and pairs.dtype == np.int64 and pairs.shape == (len(expected), 2)
                assert pairs.tolist() == [list(p) for p in expected]

    @pytest.mark.parametrize("text,error", [
        ("0\tu0\n1\tu1\n2\tu2\n", None),
        ("2\tu2\n0\tu0\n1\tu1", None),
        ("\n00\tu0\n\n1\tu1\r\n+2\tu2\n\n", None),
        ("0\tu0\n1\tu1\n2\tu2\n3\tu3\n", "line 4: key-map index 3 out of range"),
        ("0\tu0\n1\tu1\n1\tu2\n", "line 3: key-map index 1 is listed twice"),
        ("0\tu0\n\tu1\n2\tu2\n", "line 2: bad index"),
        ("0\tu0\n1\tu1\n", "expected 3 key rows, found 2"),
    ])
    def test_key_map_layouts(self, tmp_path, text, error):
        path = tmp_path / "user_keys.tsv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if error is None:
            assert datasets._read_keys(str(path), 3) == ["u0", "u1", "u2"]
        else:
            with pytest.raises(DataError, match="^" + re.escape(f"{path}: {error}")):
                datasets._read_keys(str(path), 3)


@settings(max_examples=200, deadline=None, database=None)
@given(st.text(alphabet="0123456789\t\n\r -+_.e#\x0b\x1c\xa0\u0661", max_size=30))
def test_any_view_text_reads_as_the_per_line_parser_reads_it(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.tsv")
        by_line = _load_view_text(path, text, datasets._read_pairs_by_line)
        got = _load_view_text(path, text, datasets._read_pairs)
    if isinstance(by_line, ParseError):
        assert type(got) is ParseError and str(got) == str(by_line)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.tolist() == by_line.tolist()


_ID_FORMS = (str, lambda i: f"0{i}", lambda i: f"+{i}", lambda i: f" {i} ", lambda i: chr(0x660 + i) if i < 10 else str(i))


@st.composite
def _view_dirs(draw):
    """A catalog, three disjoint views of it, and view-file texts that the
    per-line parser reads as those views: plain, or with leading zeros,
    signs, spaces, Arabic-Indic digits, trailing tabs, CRLF and blank lines."""
    num_users, num_items = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    cells = st.tuples(st.integers(0, num_users - 1), st.integers(0, num_items - 1))
    pairs = draw(st.lists(cells, unique=True, max_size=40))
    which = draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    views, texts = [], []
    for name in range(3):
        view = [p for p, w in zip(pairs, which) if w == name]
        if draw(st.booleans()):
            lines = [f"{u}\t{v}" for u, v in view]
            eol = "\n"
        else:
            lines = []
            for u, v in view:
                lines += draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=1))
                form_u, form_v = draw(st.sampled_from(_ID_FORMS)), draw(st.sampled_from(_ID_FORMS))
                lines.append(f"{form_u(u)}\t{form_v(v)}" + draw(st.sampled_from(["", "\t", " "])))
            eol = draw(st.sampled_from(["\n", "\r\n"]))
        views.append(sorted(view))
        texts.append(eol.join(lines) + draw(st.sampled_from(["", eol])))
    return num_users, num_items, views, texts


@settings(max_examples=60, deadline=None, database=None)
@given(_view_dirs())
def test_random_views_load_as_the_per_line_parser_reads_them(case):
    num_users, num_items, views, texts = case
    with tempfile.TemporaryDirectory() as path:
        with open(os.path.join(path, "meta"), "w", encoding="utf-8") as fh:
            fh.write(f"num_users={num_users}\nnum_items={num_items}\n")
            fh.writelines(f"num_{name}={len(view)}\n" for name, view in zip(datasets.VIEW_FILES, views))
        for fname, text in zip(datasets.VIEW_FILES.values(), texts):
            with open(os.path.join(path, fname), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for fname, n in ((datasets.USER_KEYS_FILE, num_users), (datasets.ITEM_KEYS_FILE, num_items)):
            with open(os.path.join(path, fname), "w", encoding="utf-8") as fh:
                fh.writelines(f"{i}\tk{i}\n" for i in range(n))
        bulk, _ = load_split_dir(path)
        with mock.patch.object(datasets, "_read_pairs", datasets._read_pairs_by_line):
            by_line, _ = load_split_dir(path)
    for name, view in zip(datasets.VIEW_FILES, views):
        assert getattr(bulk, name).pair_array().tolist() == [list(p) for p in view]
        assert np.array_equal(getattr(bulk, name).pair_array(), getattr(by_line, name).pair_array())
    assert np.array_equal(bulk.pair_keys(), by_line.pair_keys())
    assert bulk.train.user_keys == by_line.train.user_keys == [f"k{i}" for i in range(num_users)]


def corrupt_dir(path, case: str) -> None:
    """Damage a saved dataset directory in one of the ways loading rejects;
    a pair added to a view also raises that view's ``meta`` count."""
    meta = dict(line.split("=", 1) for line in (path / "meta").read_text().splitlines())
    first = (path / "train.tsv").read_text().splitlines(keepends=True)[0]
    if case == "pair_repeated_in_one_view":
        with open(path / "train.tsv", "a") as fh:
            fh.write(first)
        meta["num_train"] = str(int(meta["num_train"]) + 1)
    elif case == "pair_in_two_views":
        with open(path / "test.tsv", "a") as fh:
            fh.write(first)
        meta["num_test"] = str(int(meta["num_test"]) + 1)
    elif case == "meta_count_differs":
        meta["num_validation"] = str(int(meta["num_validation"]) + 1)
    elif case == "key_index_listed_twice":
        lines = (path / "item_keys.tsv").read_text().splitlines(keepends=True)
        lines[1] = "0" + lines[1][lines[1].index("\t") :]
        (path / "item_keys.tsv").write_text("".join(lines))
    else:
        raise ValueError(case)
    (path / "meta").write_text("".join(f"{key}={value}\n" for key, value in meta.items()))
