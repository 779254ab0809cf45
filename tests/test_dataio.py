import dataclasses
import json
import re
import warnings

import numpy as np
import pytest

from m2e.cluster import as_labels
from m2e.datagen import SyntheticSpec, generate, hiv_shape_preset
from m2e.dataio import (DatasetError, load_dataset, load_dataset_labels, load_dataset_view,
                        load_labels, load_matrix, save_dataset, save_labels, save_matrix,
                        view_index)
from m2e.solver import M2eConfig, m2e_fit
from m2e.tensors import GraphViewTensor


def _view_text(data):
    """A view file in the documented format: for each pair i <= j, a line of N "%.17g" numbers."""
    m = data.shape[0]
    return "".join(" ".join("%.17g" % x for x in data[i, j]) + "\n"
                   for i in range(m) for j in range(i, m))


@pytest.fixture
def small_dataset(tmp_path):
    views, labels = generate(SyntheticSpec(views=2, nodes=6, subjects=8,
                                           cluster_sizes=(4, 4), latent_rank=2,
                                           seed=0))
    save_dataset(tmp_path / "ds", views, labels, metadata={"origin": "test"})
    return tmp_path / "ds", views, labels


def test_round_trip_exact(small_dataset, tmp_path):
    path, views, labels = small_dataset
    ds = load_dataset(path)
    assert ds.view_names == ["view1", "view2"]
    assert ds.metadata == {"origin": "test"}
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_array_equal(load_dataset_labels(path), labels)
    for loaded, original in zip(ds.views, views):
        assert loaded.data.tobytes() == original.data.tobytes()
    tiny = views[0].data
    tiny[0, 0, 0], tiny[1, 1, 3] = 5e-324, -1e-310  # subnormal diagonal entries
    tiny[0, 2, 1] = tiny[2, 0, 1] = 3e-320  # and a subnormal pair off the diagonal
    save_dataset(tmp_path / "tiny", [GraphViewTensor(tiny)])
    for loaded in (load_dataset(tmp_path / "tiny").views[0],
                   load_dataset_view(tmp_path / "tiny", 0)[1]):
        assert loaded.data.tobytes() == tiny.tobytes()


def test_round_trip_without_labels(tmp_path):
    views, _ = generate(SyntheticSpec(views=1, nodes=5, subjects=4,
                                      cluster_sizes=(4,), latent_rank=2, seed=1))
    save_dataset(tmp_path / "ds", views)
    ds = load_dataset(tmp_path / "ds")
    assert ds.labels is None
    assert load_dataset_labels(tmp_path / "ds") is None


def test_mismatched_subject_counts_name_views(small_dataset):
    path, _, _ = small_dataset
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["views"][1]["subject_count"] = 5
    (path / "manifest.json").write_text(json.dumps(manifest))
    for load in (load_dataset, load_dataset_labels):
        with pytest.raises(DatasetError) as err:
            load(path)
        assert "view1" in str(err.value) and "view2" in str(err.value)


def test_save_rejects_duplicate_view_names(small_dataset, tmp_path):
    _, views, _ = small_dataset
    with pytest.raises(DatasetError, match="duplicate view names: a"):
        save_dataset(tmp_path / "dup", views, view_names=["a", "a"])
    assert not (tmp_path / "dup").exists()


@pytest.mark.parametrize("args, message", [
    (lambda v: {"views": v, "labels": [1, 2, 1]}, "labels must hold one integer per subject"),
    (lambda v: {"views": v, "labels": np.arange(8) % 2},
     r"labels must be positive integers \(1\.\.K\)"),
    (lambda v: {"views": v, "labels": np.array([1.7, 2.2, 1, 1, 2, 2, 1, 2])},
     r"labels must be integers, got 1\.7"),
    (lambda v: {"views": v, "view_names": ["a"]}, "one name per view required"),
    (lambda v: {"views": v, "view_names": ["a", "a"]}, "duplicate view names: a"),
    (lambda v: {"views": v, "view_names": ["../escape", "v2"]},
     "view name '../escape' is not a plain file name"),
    (lambda v: {"views": v, "view_names": ["", "v2"]}, "view name '' is not a plain file name"),
    (lambda v: {"views": v, "view_names": ["v1", ".."]}, "view name '..' is not a plain file name"),
    (lambda v: {"views": v, "view_names": ["a\\b", "v2"]},
     r"view name 'a\\\\b' is not a plain file name"),
    (lambda v: {"views": v, "view_names": [1, 2]}, "view name 1 is not a plain file name"),
    (lambda v: {"views": v, "labels": np.arange(8) % 2 + 1, "view_names": ["labels", "b"]},
     "view name 'labels' would write its view to the labels file labels.txt"),
    (lambda v: {"views": []}, "need at least one view"),
    (lambda v: {"views": [v[0], GraphViewTensor(v[1].data[:, :, :4])]},
     r"views disagree on subject count: \[4, 8\]"),
], ids=["label-count", "label-range", "label-fraction", "name-count", "duplicate-names",
        "name-escape", "name-empty", "name-dotdot", "name-backslash", "name-not-str",
        "name-of-labels-file", "no-views",
        "subject-counts"])
def test_rejected_save_leaves_no_file_behind(small_dataset, tmp_path, args, message):
    _, views, _ = small_dataset
    with pytest.raises(DatasetError, match=message):
        save_dataset(tmp_path / "out" / "ds", **args(views))
    assert not (tmp_path / "out").exists()


def test_a_view_named_labels_saves_and_loads_when_no_labels_are_written(small_dataset, tmp_path):
    _, views, _ = small_dataset
    save_dataset(tmp_path / "ds", views, view_names=["labels", "b"])
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.view_names == ["labels", "b"] and loaded.labels is None
    np.testing.assert_array_equal(loaded.views[0].packed, views[0].packed)


@pytest.mark.parametrize("name", ["", ".", "..", "../../outside", "a/b", "a\\b", "/abs"])
def test_load_rejects_a_view_name_that_is_not_a_plain_file_name(small_dataset, name):
    path, _, _ = small_dataset
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["views"][1]["name"] = name
    (path / "manifest.json").write_text(json.dumps(manifest))
    for load in (load_dataset, load_dataset_labels, lambda p: load_dataset_view(p, 0)):
        with pytest.raises(DatasetError) as err:
            load(path)
        assert str(err.value) == (f"manifest {path / 'manifest.json'}: "
                                  f"view name {name!r} is not a plain file name")


def test_save_packs_an_array_as_it_packs_the_same_graph_view(tmp_path):
    w = np.random.default_rng(61).standard_normal((5, 5, 3))
    x = w + w.transpose(1, 0, 2)
    x[0, 3, 1] += 1e-9  # inside the symmetry tolerance: written as the pair average
    save_dataset(tmp_path / "array", [x], labels=[1, 2, 1])
    save_dataset(tmp_path / "view", [GraphViewTensor(x)], labels=[1, 2, 1])
    for name in ("manifest.json", "view1.txt", "labels.txt"):
        assert (tmp_path / "array" / name).read_bytes() == (tmp_path / "view" / name).read_bytes()


def test_load_rejects_duplicate_view_names(small_dataset):
    path, _, _ = small_dataset
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["views"][1]["name"] = "view1"
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="duplicate view names: view1"):
        load_dataset(path)


def test_block_count_mismatch_detected(small_dataset):
    path, _, _ = small_dataset
    rows = (path / "view1.txt").read_text().splitlines(keepends=True)
    (path / "view1.txt").write_text("".join(rows[:-1]))
    with pytest.raises(DatasetError, match=r"view 'view1': found 20 rows, manifest says 21 "):
        load_dataset(path)


def test_view_file_bytes_follow_documented_format(small_dataset, tmp_path):
    path, views, _ = small_dataset
    assert (path / "view1.txt").read_bytes() == _view_text(views[0].data).encode()
    hiv_views, _ = generate(dataclasses.replace(hiv_shape_preset(), subjects=3,
                                                cluster_sizes=(2, 1)))
    save_dataset(tmp_path / "hiv", hiv_views)
    assert (tmp_path / "hiv" / "view1.txt").read_bytes() == \
        _view_text(hiv_views[0].data).encode()


def test_near_symmetric_view_is_saved_as_its_pair_average(small_dataset, tmp_path):
    _, views, _ = small_dataset
    data = views[0].data.copy()
    data[0, 1, 2] += 1e-10
    save_dataset(tmp_path / "near", [GraphViewTensor(data)])
    average = (data + data.transpose(1, 0, 2)) / 2
    assert (tmp_path / "near" / "view1.txt").read_text() == _view_text(average)
    loaded = load_dataset(tmp_path / "near").views[0].data
    assert loaded.tobytes() == average.tobytes()


def test_one_node_view_round_trips(tmp_path):
    data = np.array([[[0.1, -2.5, 3e-300]]])
    save_dataset(tmp_path / "one", [GraphViewTensor(data)])
    assert (tmp_path / "one" / "view1.txt").read_text() == _view_text(data)
    assert load_dataset(tmp_path / "one").views[0].data.tobytes() == data.tobytes()


def test_labels_file_bytes_are_one_integer_per_line(small_dataset):
    path, _, labels = small_dataset
    assert (path / "labels.txt").read_bytes() == "".join(f"{x}\n" for x in labels).encode()


def test_ragged_row_rejected_with_view_and_block(small_dataset):
    path, _, _ = small_dataset
    rows = (path / "view1.txt").read_text().split("\n")
    rows[17] = rows[17].rsplit(" ", 1)[0]  # drop the last number of a row past the first parse
    (path / "view1.txt").write_text("\n".join(rows))
    with pytest.raises(DatasetError, match="view 'view1': line 18 is not 8 numbers"):
        load_dataset(path)


def test_comment_text_in_view_file_rejected(small_dataset):
    path, _, _ = small_dataset
    text = (path / "view1.txt").read_text()
    (path / "view1.txt").write_text(text.replace("\n", " # note\n", 1))
    with pytest.raises(DatasetError, match="view 'view1': line 1 is not 8 numbers"):
        load_dataset(path)


@pytest.mark.parametrize("bad", ["0", "1.5", "1_0", "99999999999999999999"])
def test_label_out_of_range_or_non_integer_names_file(small_dataset, bad):
    path, _, _ = small_dataset
    labels = (path / "labels.txt").read_text().split("\n")
    labels[1] = bad
    (path / "labels.txt").write_text("\n".join(labels))
    for load in (load_dataset, load_dataset_labels, lambda p: load_labels(p / "labels.txt")):
        with pytest.raises(DatasetError) as err:
            load(path)
        assert str(err.value).startswith(f"labels file {path / 'labels.txt'}: ")
        assert str(err.value).endswith(f", got {bad}" if bad.isdigit() else f", got {bad!r}")


def test_labels_that_save_accepts_load_unchanged(tmp_path):
    values = [-1, 0, 1, 2, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 1.0, 1.5, 2.0**62, 1e20]
    rng = np.random.default_rng(14)
    draws = [[2**53 + 1, 1.0]] + [[values[i] for i in rng.integers(len(values),
                                                                  size=rng.integers(1, 4))]
                                  for _ in range(300)]
    saved = 0
    for given in draws:
        for labels in (given, np.asarray(given)):
            path = tmp_path / f"labels{saved}.txt"
            try:
                save_labels(path, labels)
            except ValueError:
                assert not path.exists()
                continue
            # a list keeps its values exactly; an array holds what its dtype made of them
            expected = [int(x) for x in (labels.tolist() if isinstance(labels, np.ndarray)
                                         else labels)]
            assert as_labels(labels).tolist() == expected
            assert load_labels(path).tolist() == expected
            saved += 1
    assert 100 < saved < 500


def test_non_finite_entries_rejected(small_dataset):
    path, _, _ = small_dataset
    text = (path / "view1.txt").read_text()
    first_num = text.split()[0]
    (path / "view1.txt").write_text(text.replace(first_num, "nan", 1))
    with pytest.raises(DatasetError, match="finite"):
        load_dataset(path)


def test_missing_matrix_file(small_dataset):
    path, _, _ = small_dataset
    (path / "view2.txt").unlink()
    with pytest.raises(DatasetError, match="missing"):
        load_dataset(path)


def test_missing_manifest(tmp_path):
    for load in (load_dataset, load_dataset_labels):
        with pytest.raises(DatasetError, match="manifest"):
            load(tmp_path / "nope")


def test_manifest_entry_without_matrix_file(small_dataset):
    path, _, _ = small_dataset
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["views"][0]["matrix_file"]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="matrix_file"):
        load_dataset(path)


def test_manifest_without_views(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"format_version": 2, "subject_count": 3,
                                                 "views": []}))
    with pytest.raises(DatasetError, match="views"):
        load_dataset(d)


@pytest.mark.parametrize("content, fault", [
    (b"[]", "the top level must be a JSON object"),
    (b"null", "the top level must be a JSON object"),
    (b"2", "the top level must be a JSON object"),
    (b'"manifest"', "the top level must be a JSON object"),
    (b"{", "does not parse as JSON: "),
    (b'\xff{"format_version": 2}', "does not parse as JSON: "),
], ids=["list", "null", "number", "string", "truncated", "not-utf-8"])
def test_manifest_that_is_not_a_json_object_names_the_manifest(small_dataset, content, fault):
    path, _, _ = small_dataset
    (path / "manifest.json").write_bytes(content)
    for load in (load_dataset, load_dataset_labels, lambda p: load_dataset_view(p, 0)):
        with pytest.raises(DatasetError) as err:
            load(path)
        assert str(err.value).startswith(f"manifest {path / 'manifest.json'}: {fault}")


@pytest.mark.parametrize("field, value", [
    ("subject_count", "four"),
    ("subject_count", [4]),
    ("views", {"view1": "view1.txt"}),
    ("views", ["view1", "view2"]),
    ("node_count", "x"),
    ("labels_file", 5),
    ("matrix_file", 5),
    ("name", ["x"]),
], ids=["count-text", "count-list", "views-dict", "views-strings", "nodes-text",
        "labels-number", "matrix-file-number", "name-list"])
def test_malformed_manifest_field_names_manifest_and_field(small_dataset, field, value):
    path, _, _ = small_dataset
    manifest = json.loads((path / "manifest.json").read_text())
    in_view = field in ("node_count", "matrix_file", "name")
    (manifest["views"][0] if in_view else manifest)[field] = value
    (path / "manifest.json").write_text(json.dumps(manifest))
    for load in (load_dataset, load_dataset_labels):
        if load is load_dataset_labels and field in ("node_count", "matrix_file"):
            continue  # the labels reader does not read view files
        with pytest.raises(DatasetError) as err:
            load(path)
        assert str(path / "manifest.json") in str(err.value)
        assert field in str(err.value)


def test_label_count_mismatch(small_dataset):
    path, _, _ = small_dataset
    (path / "labels.txt").write_text("1\n2\n")
    for load in (load_dataset, load_dataset_labels):
        with pytest.raises(DatasetError, match="labels file holds 2 entries"):
            load(path)


def test_save_matrix_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-20, 20, (7, 3)))
    save_matrix(tmp_path / "m.txt", m, "test matrix")
    np.testing.assert_array_equal(load_matrix(tmp_path / "m.txt"), m)


def test_load_matrix_checks_the_shape_its_header_states(tmp_path):
    m = np.arange(80.0).reshape(40, 2)
    save_matrix(tmp_path / "m.txt", m, "consensus embedding")
    lines = (tmp_path / "m.txt").read_text().splitlines(keepends=True)
    (tmp_path / "cut.txt").write_text("".join(lines[:-5]))
    with pytest.raises(DatasetError) as err:
        load_matrix(tmp_path / "cut.txt")
    assert str(err.value) == (f"matrix file {tmp_path / 'cut.txt'}: its header says 40 x 2, "
                              "its rows hold 35 x 2")
    # without save_matrix's header, a file loads as it is
    np.savetxt(tmp_path / "plain.txt", m[:35])
    np.savetxt(tmp_path / "comment.txt", m[:35], header="consensus embedding")
    for name in ("plain.txt", "comment.txt"):
        np.testing.assert_array_equal(load_matrix(tmp_path / name), m[:35])


@pytest.mark.parametrize("content, fault", [
    ("1 2\n3 x\n", "its lines are not rows of equally many numbers"),
    ("1 2\n3 4 5\n", "its lines are not rows of equally many numbers"),
    ("", "holds no numbers"),
    ("# 2 2 consensus embedding\n", "holds no numbers"),
    # `#` text after the header: numpy would drop it, and load another 2 x 2
    # matrix from a row commented out with one appended
    ("0 1 # 9\n", "its lines are not rows of equally many numbers"),
    ("# 2 2 consensus embedding\n0 1\n#2 3\n4 5\n",
     "its lines are not rows of equally many numbers"),
], ids=["not-a-number", "ragged", "empty", "header-only", "hash-in-a-row",
        "row-commented-out"])
def test_load_matrix_faults_name_the_file(tmp_path, content, fault):
    path = tmp_path / "m.txt"
    path.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning ahead of the fault
        with pytest.raises(DatasetError) as err:
            load_matrix(path)
    assert str(err.value) == f"matrix file {path}: {fault}"


def test_load_matrix_takes_blank_and_hash_lines_ahead_of_the_first_row_as_its_header(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n# 2 2 consensus embedding\n  # more header\n\n0 1\n\n2 3\n")
    np.testing.assert_array_equal(load_matrix(path), [[0.0, 1.0], [2.0, 3.0]])


@pytest.mark.parametrize("names, view, expected", [
    (["view1", "view2"], "1", 1),
    (["view1", "view2"], np.int64(0), 0),
    (["view1", "view2"], "01", 1),
    (["1", "0"], "1", 0),
    (["1", "0"], "0", 1),
    (["1", "0"], 1, 1),
], ids=["digits", "numpy-int", "leading-zero", "digit-name", "digit-name-0",
        "int-among-digit-names"])
def test_view_index_takes_a_name_before_an_index(names, view, expected):
    assert view_index(names, view) == expected


@pytest.mark.parametrize("view, message", [
    ("view3", "unknown view 'view3'; have ['view1', 'view2']"),
    ("²", "unknown view '²'; have ['view1', 'view2']"),
    ("-1", "unknown view '-1'; have ['view1', 'view2']"),
    ("", "unknown view ''; have ['view1', 'view2']"),
    (1.0, "unknown view 1.0; have ['view1', 'view2']"),
    (True, "unknown view True; have ['view1', 'view2']"),
    (2, "view index 2 out of range"),
    ("2", "view index 2 out of range"),
    (-1, "view index -1 out of range"),
], ids=["unknown-name", "superscript-two", "negative-text", "empty", "float", "bool",
        "int-past-end", "digits-past-end", "negative-int"])
def test_view_index_rejects_what_is_neither_a_name_nor_an_index(view, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        view_index(["view1", "view2"], view)


def _spoil_manifest(path, **fields):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["views"][0].update(fields)
    (path / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("spoil, load, message", [
    (lambda p: (p / "labels.txt").unlink(), load_dataset,
     "labels file {path}/labels.txt is missing"),
    (lambda p: _spoil_manifest(p, node_count=0), load_dataset,
     "view 'view1': node_count must be positive"),
], ids=["labels-missing", "node-count-zero"])
def test_dataset_faults_name_what_is_at_fault(small_dataset, spoil, load, message):
    path, _, _ = small_dataset
    spoil(path)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        load(path)


def test_dataset_view_files_reparse_exactly(small_dataset):
    path, views, _ = small_dataset
    ds = load_dataset(path)
    for loaded, original in zip(ds.views, views):
        np.testing.assert_array_equal(loaded.data, original.data)


# --------------------------------------------------------------------------
# view file layouts and faults, on a 2-node, 2-subject view: slices [[1, 2], [2, 3]]
# and [[4, 5], [5, 6]], whose pairs (0, 0), (0, 1), (1, 1) are the rows below

ROWS = "1.0 4.0\n2.0 5.0\n3.0 6.0\n"


def _two_node_dataset(root, text, nodes=2, subjects=2, version=2):
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({
        "format_version": version, "subject_count": subjects,
        "views": [{"name": "view1", "node_count": nodes, "subject_count": subjects,
                   "matrix_file": "view1.txt"}],
    }))
    (root / "view1.txt").write_bytes(text.encode())
    return root


@pytest.mark.parametrize("text", [
    ROWS.replace("\n", "\r\n"),
    ROWS.rstrip("\n"),
    " 1.0\t4.0 \n2.0  5.0\n\t3.0 6.0\n",
], ids=["crlf", "no-final-newline", "spaces-and-tabs-around-numbers"])
def test_view_file_layouts_that_load(tmp_path, text):
    ds = load_dataset(_two_node_dataset(tmp_path / "ds", text))
    np.testing.assert_array_equal(ds.views[0].data[:, :, 0], [[1, 2], [2, 3]])
    np.testing.assert_array_equal(ds.views[0].data[:, :, 1], [[4, 5], [5, 6]])


@pytest.mark.parametrize("text, nodes, subjects, message", [
    ("1.0 4.0\n\n2.0 5.0\n3.0 6.0\n", 2, 2, "line 2 is not 2 numbers"),
    ("1.0 4.0\n \t\n2.0 5.0\n3.0 6.0\n", 2, 2, "line 2 is not 2 numbers"),
    (ROWS + "\n", 2, 2, "line 4 is not 2 numbers"),
    ("1.0 4.0\n2.0\n3.0 6.0\n", 2, 2, "line 2 is not 2 numbers"),
    ("1.0 4.0 # x\n2.0 5.0\n3.0 6.0\n", 2, 2, "line 1 is not 2 numbers"),
    ("1.0 4.0\n2.0 x\n3.0 6.0\n", 2, 2, "line 2 is not 2 numbers"),
    ("1.0 4.0\n2.0 5.0\n3.0 \xff6.0\n", 2, 2, "line 3 is not 2 numbers"),
    ("1 4 7\n2 5 8\n3 6 9\n", 2, 2, "line 1 is not 2 numbers"),
    (ROWS + "7.0 8.0\n", 2, 2, r"found 4 rows, manifest says 3 \(2 nodes\)"),
    ("1.0 4.0\n2.0 5.0\n", 2, 2, r"found 2 rows, manifest says 3 \(2 nodes\)"),
    ("1 4\n2 5\n", 2, 2, "matrix file .* is too short for 3 rows of 2 numbers"),
    (ROWS, 2, 10 ** 12, "matrix file .* is too short for 3 rows of 1000000000000 numbers"),
    (ROWS, 10 ** 6, 2, "matrix file .* is too short for 500000500000 rows of 2 numbers"),
], ids=["blank-line", "whitespace-line", "trailing-blank-line", "ragged-row", "comment-text",
        "unparsable-number", "non-ascii-byte", "wrong-subject-count", "too-many-rows", "too-few-rows",
        "too-short", "huge-subject-count", "huge-node-count"])
def test_view_file_faults_and_their_messages(tmp_path, text, nodes, subjects, message):
    path = _two_node_dataset(tmp_path / "ds", text, nodes, subjects)
    for load in (load_dataset, lambda p: load_dataset_view(p, 0)):
        with pytest.raises(DatasetError, match=f"view 'view1': {message}"):
            load(path)


@pytest.mark.parametrize("version", [1, 3, "2", None], ids=["1", "3", "text-2", "missing"])
def test_manifest_of_another_format_version_is_rejected(tmp_path, version):
    path = _two_node_dataset(tmp_path / "ds", ROWS, version=version)
    for load in (load_dataset, load_dataset_labels, lambda p: load_dataset_view(p, 0)):
        with pytest.raises(DatasetError) as err:
            load(path)
        assert str(err.value) == (f"manifest {path / 'manifest.json'}: format_version "
                                  f"{version!r} is not supported; this version reads "
                                  f"format_version 2")


def test_hiv_shape_round_trip_is_bit_exact(tmp_path):
    views, labels = generate(dataclasses.replace(hiv_shape_preset(), views=1, seed=3))
    save_dataset(tmp_path / "hiv", views, labels)
    name, view = load_dataset_view(tmp_path / "hiv", "view1")
    assert name == "view1"
    assert view.data.flags.c_contiguous
    assert view.data.tobytes() == views[0].data.tobytes()


def test_loader_and_constructor_pack_and_reject_alike(tmp_path):
    w = np.random.default_rng(12).standard_normal((6, 6, 4))
    x = w + w.transpose(1, 0, 2)
    x[1, 4, 1] += 1e-9  # inside the symmetry tolerance
    x[0, 2, 3], x[2, 0, 3] = 3e-320, 5e-324  # a subnormal pair, averaged
    x[1, 5, 3] = x[5, 1, 3] = 1.5e308  # a finite pair whose sum overflows
    save_dataset(tmp_path / "ds", [x])
    packed = load_dataset_view(tmp_path / "ds", 0)[1].packed
    assert packed.tobytes() == GraphViewTensor(x).packed.tobytes()
    dense = GraphViewTensor.from_packed(packed).data
    assert (dense[0, 2, 3], dense[1, 5, 3]) == ((3e-320 + 5e-324) / 2.0, 1.5e308)

    nan, skew = x.copy(), x.copy()
    nan[3, 1, 2] = np.nan
    skew[5, 0, 2] += 1e-3
    for bad, message in ((nan, "affinity entries must be finite"),
                         (skew, r"frontal slice 2 is asymmetric by 0\.001 ")):
        with pytest.raises(DatasetError, match=f"view 0: {message}"):
            save_dataset(tmp_path / "bad", [bad])
        assert not (tmp_path / "bad").exists()
        with pytest.raises(ValueError, match=message):
            GraphViewTensor(bad)


# the fault each case of slice 2's defect gives, or None where the view is valid
SLICE_FAULTS = {
    "0": (0.0, None), "1e-9": (1e-9, None), "5e-7": (5e-7, None), "1e-6": (1e-6, None),
    "2e-6": (2e-6, "frontal slice 2 is asymmetric by 2e-06 (tolerance 1e-06)"),
    "1e-3": (1e-3, "frontal slice 2 is asymmetric by 0.001 (tolerance 1e-06)"),
    "nan": (np.nan, "affinity entries must be finite"),
    "inf": (np.inf, "affinity entries must be finite"),
}


@pytest.mark.parametrize("case", list(SLICE_FAULTS))
def test_every_path_accepts_and_packs_the_same_slices_alike(tmp_path, case):
    defect, fault = SLICE_FAULTS[case]
    w = np.random.default_rng(13).standard_normal((5, 5, 3))
    x = w + w.transpose(1, 0, 2)
    if np.isfinite(defect):
        x[1, 4, 2], x[4, 1, 2] = defect, 0.0  # asymmetric by exactly `defect`
    else:
        x[3, 1, 2] = defect
    config = M2eConfig(rank=2, max_outer_iters=3)

    def saved(load):
        save_dataset(tmp_path / "saved", [x])
        return load(tmp_path / "saved").packed

    def fitted():
        fit = m2e_fit([x], config)
        return fit.consensus, *fit.node_factors, fit.objective_trace

    # path -> (the prefix its faults carry, what it returns for a valid view)
    paths = {
        "GraphViewTensor": ("", lambda: GraphViewTensor(x).packed),
        "m2e_fit": ("view 0: ", fitted),
        "load_dataset": ("view 0: ", lambda: saved(lambda p: load_dataset(p).views[0])),
        "load_dataset_view": ("view 0: ", lambda: saved(lambda p: load_dataset_view(p, 0)[1])),
    }
    results = {}
    for name, (prefix, call) in paths.items():
        if fault is None:
            results[name] = call()
            continue
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == prefix + fault, name
        assert isinstance(err.value, DatasetError) == ("dataset" in name), name
    if fault is not None:
        assert not (tmp_path / "saved").exists()
        return
    packed = results["GraphViewTensor"]
    for name in ("load_dataset", "load_dataset_view"):
        assert results[name].tobytes() == packed.tobytes(), name
    expected = m2e_fit([GraphViewTensor.from_packed(packed)], config)
    for got, want in zip(results["m2e_fit"], (expected.consensus, *expected.node_factors,
                                              expected.objective_trace)):
        assert got.tobytes() == want.tobytes()
