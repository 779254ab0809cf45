"""On-disk dataset format: a JSON manifest plus plain-text matrix files.

A dataset directory contains `manifest.json` and one matrix file per view.
Each matrix file holds N blocks (one per subject) of M whitespace-separated
rows, with a blank line between blocks. Numbers are written with 17
significant digits so that every emitted value re-parses bit-exactly.
Labels, when present, are one integer per line, checked by
`m2e.cluster.as_labels`.

Views are held packed (`m2e.tensors.GraphViewTensor`): each slice's plain
upper triangle, entry (i, j) for i <= j holding the pair average
(s[i, j] + s[j, i]) / 2.0. Neither the writer nor the loader builds a dense
(M, M, N) view. The writer formats each block's M(M+1)/2 packed entries
once, straight from its packed column, and writes each string at both
(i, j) and (j, i), so an exactly symmetric slice gives the bytes of
`np.savetxt`, which writes the other matrices and the labels. Matrices are
parsed by `np.loadtxt`. View blocks are parsed with `comments=None`: a view
file holds numbers only, and numpy would otherwise drop any `# ...` text
without a word.

A view file is read as a stream of lines. Only an empty line ends a block
(after CRLF and CR line ends are read as LF); a whitespace-only line stays
inside its block, where `np.loadtxt` skips it, and a block of whitespace-only
lines is dropped. Each block is parsed when its closing empty line, or the
end of the file, arrives; blocks past N are counted but not parsed.
`m2e.tensors.pack_slice` packs its pair averages into the one (M(M+1)/2, N)
array that the view keeps, and gives its asymmetry max |s[i, j] - s[j, i]|
and whether it is finite. So a loader holds one block of text at a time, and
its peak memory is about the packed views it returns. Faults are reported
after the last block, in this order, the first that applies:

1. a missing file;
2. a block count other than N ("found K matrix blocks, manifest says N");
3. the first block that does not parse or is not M x M;
4. non-finite entries ("affinity entries must be finite");
5. a slice asymmetric by more than `m2e.tensors.DRIFT_TOL`, naming the worst.

Faults 4 and 5 are raised by `m2e.tensors.raise_on_faults`, the rule that
`GraphViewTensor` applies to an array, so a view file loads exactly when its
slices, passed as an array, would be accepted. Slices within that tolerance
are kept as their pair averages.
"""
from __future__ import annotations

import collections
import itertools
import json
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cluster import as_labels
from .tensors import GraphViewTensor, as_views, pack_slice, raise_on_faults, symmetric_index

FORMAT_VERSION = 1
_FLOAT_FMT = "%.17g"


class DatasetError(ValueError):
    """Malformed manifest or matrix/label file."""


@dataclass(frozen=True)
class Dataset:
    views: list[GraphViewTensor]
    labels: np.ndarray | None
    view_names: list[str]
    metadata: dict = field(default_factory=dict)


def save_matrix(path: Path | str, matrix: np.ndarray, comment: str = "") -> None:
    """Write a 2-D array as delimited text with a dimension header."""
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = f"{m.shape[0]} {m.shape[1]}" + (f" {comment}" if comment else "")
    np.savetxt(path, m, fmt=_FLOAT_FMT, header=header)


def load_matrix(path: Path | str) -> np.ndarray:
    m = np.loadtxt(path, ndmin=2)
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
        # Python ints, so that as_labels names a value beyond int64 exactly
        return as_labels(np.array([int(t) for t in tokens], dtype=object))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise DatasetError(f"labels file {path}: {exc}") from exc


def _write_view_file(path: Path, view: GraphViewTensor) -> None:
    """Write one block per subject from the packed rows; see the module docstring."""
    m = view.node_count
    mirror = operator.itemgetter(*symmetric_index(m)[2].tolist())  # a bare string when m == 1
    block = "\n".join([" ".join(["%s"] * m)] * m) + "\n"
    with open(path, "w") as fh:
        for n in range(view.subject_count):
            if n:
                fh.write("\n")
            fh.write(block % mirror(list(map(_FLOAT_FMT.__mod__, view.packed[:, n].tolist()))))


def _text_blocks(lines):
    """Each block of `lines` that holds text, as an iterator over its lines.

    Only an empty line ends a block. A whitespace-only line stays inside its
    block, and a block of whitespace-only lines is dropped; the lines before
    a block's first text are not yielded. Each block must be read, fully or
    not at all, before the next is drawn.
    """
    for line in lines:
        if not line.isspace():
            block = itertools.chain([line], itertools.takewhile(lambda s: s != "\n", lines))
            yield block
            collections.deque(block, maxlen=0)  # skip what the caller did not read


def _parse_block(block, name: str, n: int, nodes: int) -> np.ndarray:
    try:
        matrix = np.loadtxt(itertools.chain.from_iterable(map(str.splitlines, block)),
                            ndmin=2, comments=None)
    except ValueError as exc:
        raise DatasetError(f"view '{name}': unparsable block {n}: {exc}") from exc
    if matrix.shape != (nodes, nodes):
        raise DatasetError(
            f"view '{name}': block {n} has shape {matrix.shape}, "
            f"manifest says ({nodes}, {nodes})"
        )
    return matrix


def _read_view_file(path: Path, name: str, nodes: int, subjects: int) -> GraphViewTensor:
    """Stream a view file into its packed rows; see the module docstring."""
    if not path.exists():
        raise DatasetError(f"view '{name}': matrix file {path} is missing")
    # N blocks of M*M numbers take at least N(2M^2 - 1) bytes. A shorter file
    # cannot load and is read only to name its fault, so that a wrong manifest
    # count never sizes an allocation.
    data = None
    if path.stat().st_size >= subjects * (2 * nodes * nodes - 1):
        data, asymmetry = np.empty((symmetric_index(nodes)[0].size, subjects)), np.zeros(subjects)
    count, fault, finite = 0, None, True
    with path.open() as fh:
        for block in _text_blocks(fh):
            if count < subjects and fault is None:
                try:
                    matrix = _parse_block(block, name, count, nodes)
                except DatasetError as exc:
                    fault = exc  # the block count, known at the end, is reported first
                else:
                    if data is not None and finite:
                        asymmetry[count], finite = pack_slice(matrix, data[:, count])
            count += 1
    if count != subjects:
        raise DatasetError(f"view '{name}': found {count} matrix blocks, manifest says {subjects}")
    if fault is not None:
        raise fault
    if data is None:  # the file grew while it was read
        raise DatasetError(f"view '{name}': matrix file {path} changed while it was read")
    try:
        raise_on_faults(asymmetry, finite)
    except ValueError as exc:
        raise DatasetError(f"view '{name}': {exc}") from exc
    return GraphViewTensor.from_packed(data)


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
        _write_view_file(root / fname, view)
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
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
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
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest does not parse: {exc}") from exc
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
    """Position of `view`, a view name or a 0-based index, among `names`."""
    if isinstance(view, str):
        if view not in names:
            raise ValueError(f"unknown view {view!r}; have {names}")
        return names.index(view)
    idx = int(view)
    if not 0 <= idx < len(names):
        raise ValueError(f"view index {idx} out of range")
    return idx


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
