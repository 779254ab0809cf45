"""On-disk dataset format: a JSON manifest plus plain-text files.

A dataset directory contains `manifest.json` (`format_version` 2, the one
version read) and one text file per view. A view file holds the view's packed
rows, `GraphViewTensor.packed`: M(M+1)/2 lines, line e holding the pair e
(i <= j, in the order of `m2e.tensors.symmetric_index`) as N space-separated
numbers, one per subject. Numbers are written with 17 significant digits so
that every value re-parses bit-exactly. Each pair is stored once, so a view
file cannot be asymmetric. Labels, when present, are one integer per line,
checked by `m2e.cluster.as_labels`.

The writer is `np.savetxt`. The reader fills one (M(M+1)/2, N) array by
`np.loadtxt` over a few lines at a time, so its peak memory is about the
packed views it returns. It parses with `comments=None`: a view file holds
numbers only, and numpy would otherwise drop any `# ...` text without a word.
A view file fails to load, with a DatasetError naming the view, when

1. it is missing;
2. it is too short for the manifest's counts, at 2N bytes a row; this is
   checked before the rows are allocated;
3. a line is not N numbers: a ragged row, `#` text, a non-ASCII byte
   or a blank line;
4. it holds other than M(M+1)/2 rows;
5. an entry is not finite.
"""
from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cluster import as_labels
from .tensors import GraphViewTensor, as_views

FORMAT_VERSION = 2
_FLOAT_FMT = "%.17g"
# view file lines per np.loadtxt call, so that the text held is small beside the rows
_PARSE_LINES = 16


class DatasetError(ValueError):
    """Malformed manifest or matrix/label file."""


@dataclass(frozen=True)
class Dataset:
    views: list[GraphViewTensor]
    labels: np.ndarray | None
    view_names: list[str]
    metadata: dict = field(default_factory=dict)


def write_json(path: Path | str, document: dict) -> None:
    """Write every JSON document (manifest, summary, metrics, error) one way:
    indented by 2, keys sorted, a final newline, the parent directory created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def save_matrix(path: Path | str, matrix: np.ndarray, comment: str = "") -> None:
    """Write a 2-D array as delimited text with a dimension header."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = f"{m.shape[0]} {m.shape[1]}" + (f" {comment}" if comment else "")
    np.savetxt(path, m, fmt=_FLOAT_FMT, header=header)


def load_matrix(path: Path | str) -> np.ndarray:
    """Read a 2-D array from delimited text, as :func:`save_matrix` writes it.

    A first line of the form `# rows cols ...`, the header :func:`save_matrix`
    writes, is checked: rows that disagree with it raise a DatasetError naming
    the file and both shapes. A file without that header loads as it is.
    """
    m = np.loadtxt(path, ndmin=2)
    with open(path, encoding="ascii", errors="replace") as fh:
        header = re.match(r"#\s*(\d+)\s+(\d+)(?:\s|$)", fh.readline())
    if header and m.shape != (int(header[1]), int(header[2])):
        raise DatasetError(f"matrix file {path}: its header says {header[1]} x {header[2]}, "
                           f"its rows hold {m.shape[0]} x {m.shape[1]}")
    return m


def save_labels(path: Path | str, labels: np.ndarray) -> None:
    """Write class labels, one integer per line, as :func:`load_labels` reads them.

    Labels are checked by :func:`m2e.cluster.as_labels` before the file is opened.
    """
    np.savetxt(path, as_labels(labels), fmt="%d")


def load_labels(path: Path | str) -> np.ndarray:
    """Read a labels file: one integer class id per line, checked by :func:`as_labels`.

    A token must be an optional sign and decimal digits; `int` alone would also
    take `1_0` or non-ASCII digits.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"labels file {path} is missing")
    try:
        tokens = path.read_text().split()
        bad = next((t for t in tokens if not re.fullmatch(r"[+-]?[0-9]+", t)), None)
        if bad is not None:
            raise ValueError(f"labels must be integers, got {bad!r}")
        return as_labels([int(t) for t in tokens])
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise DatasetError(f"labels file {path}: {exc}") from exc


def _parse_rows(lines: list[str], name: str, first: int, subjects: int) -> np.ndarray:
    """Lines first + 1, ... of a view file as a (len(lines), subjects) array.

    A blank line is a fault, which np.loadtxt would skip; the fault names the first bad line.
    """
    try:
        rows = None if any(map(str.isspace, lines)) else np.loadtxt(lines, ndmin=2, comments=None)
    except ValueError:
        rows = None
    if rows is not None and rows.shape == (len(lines), subjects):
        return rows
    if len(lines) > 1:  # parse line by line, to name the first at fault
        for k, line in enumerate(lines):
            _parse_rows([line], name, first + k, subjects)
    raise DatasetError(f"view '{name}': line {first + 1} is not {subjects} numbers")


def _read_view_file(path: Path, name: str, nodes: int, subjects: int) -> GraphViewTensor:
    """Read a view file into its packed rows; see the module docstring."""
    if not path.exists():
        raise DatasetError(f"view '{name}': matrix file {path} is missing")
    pairs = nodes * (nodes + 1) // 2
    # a row of N numbers takes at least 2N bytes with its line end, so a shorter
    # file is rejected unread, and a wrong manifest count never sizes an allocation
    if path.stat().st_size < 2 * pairs * subjects - 1:
        raise DatasetError(f"view '{name}': matrix file {path} is too short for "
                           f"{pairs} rows of {subjects} numbers")
    rows, count = np.empty((pairs, subjects)), 0
    # numbers are ASCII: any other byte reads as U+FFFD, so its line fails to parse
    with path.open(encoding="ascii", errors="replace") as fh:
        while lines := list(itertools.islice(fh, _PARSE_LINES)):
            chunk = _parse_rows(lines, name, count, subjects)
            if count + len(lines) > pairs:
                count += len(lines) + sum(1 for _ in fh)
                break
            rows[count:count + len(lines)] = chunk
            count += len(lines)
    if count != pairs:
        raise DatasetError(f"view '{name}': found {count} rows, manifest says "
                           f"{pairs} ({nodes} nodes)")
    try:
        return GraphViewTensor.from_packed(rows)
    except ValueError as exc:
        raise DatasetError(f"view '{name}': {exc}") from exc


def _check_view_names(names: list[str], manifest_path: Path | None = None) -> None:
    """View names must be unique plain file names.

    A plain file name is a non-empty string with no '/' or '\\' that is not '.' or '..'.
    """
    for name in names:
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            where = f"manifest {manifest_path}: " if manifest_path else ""
            raise DatasetError(f"{where}view name {name!r} is not a plain file name")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise DatasetError(f"duplicate view names: {', '.join(duplicates)}")


def save_dataset(path: Path | str, views: list[GraphViewTensor | np.ndarray],
                 labels: np.ndarray | None = None,
                 view_names: list[str] | None = None,
                 metadata: dict | None = None) -> Path:
    """Write a dataset directory; returns the manifest path. Checks all before writing any.

    Views are checked, and arrays packed, by `m2e.tensors.as_views`, as the fitters do.
    View v is written to `<name>.txt`, so with labels no view may be named 'labels'.
    """
    try:
        views = as_views(views)
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc
    names = view_names or [f"view{v + 1}" for v in range(len(views))]
    if len(names) != len(views):
        raise DatasetError("one name per view required")
    _check_view_names(names)
    if labels is not None:
        try:
            labels = as_labels(labels)
        except ValueError as exc:
            raise DatasetError(str(exc)) from exc
        if labels.shape != (views[0].subject_count,):
            raise DatasetError("labels must hold one integer per subject")
        if "labels" in names:
            raise DatasetError("view name 'labels' would write its view to the "
                               "labels file labels.txt")
    manifest = {
        "format_version": FORMAT_VERSION,
        "subject_count": views[0].subject_count,
        "views": [],
        "metadata": metadata or {},
    }
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for name, view in zip(names, views):
        fname = f"{name}.txt"
        np.savetxt(root / fname, view.packed, fmt=_FLOAT_FMT)
        manifest["views"].append({
            "name": name,
            "node_count": view.node_count,
            "subject_count": view.subject_count,
            "matrix_file": fname,
        })
    if labels is not None:
        save_labels(root / "labels.txt", labels)
        manifest["labels_file"] = "labels.txt"
    manifest_path = root / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def _manifest_field(manifest_path: Path, field: str, value, kind=int):
    """kind(value), or a DatasetError naming the manifest and the field.

    A str field must already be a string, since str() accepts any JSON value.
    """
    try:
        if kind is str and not isinstance(value, str):
            raise TypeError(value)
        return kind(value)
    except (TypeError, ValueError):
        raise DatasetError(f"manifest {manifest_path}: {field} {value!r} is not "
                           f"a valid {kind.__name__}") from None


def _read_manifest(path: Path | str):
    """Check a manifest and read its labels: (manifest_path, manifest, subjects, names, labels)."""
    p = Path(path)
    manifest_path = p / "manifest.json" if p.is_dir() else p
    if not manifest_path.exists():
        raise DatasetError(f"manifest {manifest_path} is missing")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DatasetError(f"manifest {manifest_path}: does not parse as JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(f"manifest {manifest_path}: the top level must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DatasetError(f"manifest {manifest_path}: format_version {version!r} is not "
                           f"supported; this version reads format_version {FORMAT_VERSION}")
    subjects = _manifest_field(manifest_path, "subject_count", manifest.get("subject_count", 0))
    entries = manifest.get("views", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise DatasetError(f"manifest {manifest_path}: views must be a list of objects")
    if subjects < 1 or not entries:
        raise DatasetError("manifest needs a positive subject_count and views")

    names = [_manifest_field(manifest_path, f"view {i + 1} name", e.get("name", f"view{i + 1}"),
                             str) for i, e in enumerate(entries)]
    _check_view_names(names, manifest_path)
    declared = {n: _manifest_field(manifest_path, f"view '{n}' subject_count",
                                   e.get("subject_count", subjects))
                for n, e in zip(names, entries)}
    if len(set(declared.values())) > 1:
        pairs = ", ".join(f"{n}={s}" for n, s in declared.items())
        raise DatasetError(f"views disagree on subject count: {pairs}")

    labels = None
    if manifest.get("labels_file"):
        labels = load_labels(manifest_path.parent / _manifest_field(
            manifest_path, "labels_file", manifest["labels_file"], Path))
        if labels.shape != (subjects,):
            raise DatasetError(
                f"labels file holds {labels.size} entries, manifest says {subjects}"
            )
    return manifest_path, manifest, subjects, names, labels


def load_dataset_labels(path: Path | str) -> np.ndarray | None:
    """A dataset's labels (or None), checked as :func:`load_dataset` does; reads no view."""
    return _read_manifest(path)[-1]


def _read_view(manifest_path: Path, entry: dict, name: str, subjects: int) -> GraphViewTensor:
    nodes = _manifest_field(manifest_path, f"view '{name}' node_count", entry.get("node_count", 0))
    if nodes < 1:
        raise DatasetError(f"view '{name}': node_count must be positive")
    if "matrix_file" not in entry:
        raise DatasetError(f"view '{name}': manifest entry lacks a matrix_file")
    matrix_file = _manifest_field(manifest_path, f"view '{name}' matrix_file",
                                  entry["matrix_file"], Path)
    return _read_view_file(manifest_path.parent / matrix_file, name, nodes, subjects)


def view_index(names: list[str], view: str | int) -> int:
    """Position of `view` among `names`: a name selects its view; otherwise an int or a
    string of ASCII digits is a 0-based index, and anything else is an unknown view."""
    if view in names:
        return names.index(view)
    digits = isinstance(view, str) and view.isascii() and view.isdigit()
    if not digits and (isinstance(view, bool) or not isinstance(view, (int, np.integer))):
        raise ValueError(f"unknown view {view!r}; have {names}")
    if not 0 <= int(view) < len(names):
        raise ValueError(f"view index {int(view)} out of range")
    return int(view)


def load_dataset(path: Path | str) -> Dataset:
    """Load and validate a dataset directory (or its manifest file)."""
    manifest_path, manifest, subjects, names, labels = _read_manifest(path)
    views = [_read_view(manifest_path, entry, name, subjects)
             for name, entry in zip(names, manifest["views"])]
    return Dataset(views, labels, names, manifest.get("metadata", {}))


def load_dataset_view(path: Path | str, view: str | int) -> tuple[str, GraphViewTensor]:
    """One view's (name, tensor), checked as :func:`load_dataset` does; reads no other view."""
    manifest_path, manifest, subjects, names, _ = _read_manifest(path)
    idx = view_index(names, view)
    return names[idx], _read_view(manifest_path, manifest["views"][idx], names[idx], subjects)
