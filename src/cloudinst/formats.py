"""Text file formats: scene (.sc1), offsets (.off1), predictions (.pred1),
scorer (.scorer), PLY export.

Every format is header lines plus rows of numbers, read by one row reader
and written by one row writer.  numpy's C reader is the only number parser:
it reads every numeric field, header integers included, and names the fault
in a line it refuses by reading its tokens one by one.  Loaders raise only
``FormatError``, naming the first faulty line.  All writers are byte-stable:
the same object always serializes to the same bytes, and every numeric field
round-trips exactly (floats are written with enough significant digits for
their storage precision).
"""

from __future__ import annotations

import colorsys
import re
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import NoReturn

import numpy as np

from .core import FormatError, InstancePrediction, OffsetField, Scene, SceneError, check_predictions
from .scoring import ScorerModel, row_widths

_F32 = "%.9g"  # round-trips float32
_F64 = "%.17g"  # round-trips float64
_CHUNK = 4096  # rows formatted at once: bounds the Python objects held
_DIGITS = re.compile("[+-]?[0-9]+")  # an integer token the reader refuses only for its range


def _read_lines(path) -> list[str]:
    # text mode ends lines at "\r" and "\r\n" too; a byte above 0x7f
    # decodes to the lone surrogate U+DC80 + (byte - 0x80)
    text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    if not text.isascii():
        pos = re.search("[^\x00-\x7f]", text).start()
        lineno = text.count("\n", 0, pos) + 1
        raise FormatError(f"line {lineno}: non-ASCII byte 0x{ord(text[pos]) - 0xDC00:02x}")
    lines = text.split("\n")
    # a single trailing newline is the normal write shape
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _header(lines: list[str], lineno: int, tag: str, *names: str) -> list[int]:
    """The integers of ``lines[0]``, line ``lineno`` of the file, which must
    read ``<tag> <name>...``."""
    toks = lines[0].split() if lines else []
    if len(toks) != 1 + len(names) or toks[0] != tag:
        expected = " ".join([tag] + [f"<{name}>" for name in names])
        raise FormatError(f"line {lineno}: malformed header, expected '{expected}'")
    return _ints(toks[1:], lineno, names)


def _ints(toks: list[str], lineno: int, names) -> list[int]:
    """``toks``, on line ``lineno`` of the file, read as one int64 row."""
    cols = _read_rows([" ".join(toks)], lineno, [(name, np.int64, 1) for name in names])
    return [col.item() for col in cols]


def _body(lines: list[str], head: int, count: int, what: str) -> list[str]:
    """The ``count`` lines after the ``head`` header lines, which must be all
    the rest of the file."""
    if len(lines) != head + count:
        raise FormatError(
            f"line {min(len(lines), head + count) + 1}: expected {count} {what} lines, "
            f"found {len(lines) - head}"
        )
    return lines[head:]


@contextmanager
def _point_lines(first: int):
    """Re-raise a SceneError as a FormatError naming the line of its point
    or row, point or row 0 being on line ``first``."""
    try:
        yield
    except SceneError as err:
        if err.point_index is None:
            raise FormatError(str(err)) from err
        raise FormatError(f"line {first + err.point_index}: {err}") from err


def _read_rows(lines: list[str], lineno: int, fields) -> list[np.ndarray]:
    """Parse ``lines``, the first of them line ``lineno`` of the file, as a table.

    ``fields`` lists its columns as ``(name, dtype, count)`` groups, and each
    group comes back as one ``(len(lines), count)`` array of its dtype.
    numpy's C reader (``_c_rows``) parses the table in one call, and what it
    accepts is the grammar of every field.  When it refuses the table,
    halving the refused block down to one line finds the first line it
    refuses, and ``_fault`` names what is wrong there.  A table of no columns
    is a run of blank lines.  A row wider than the first line can hold is
    named at once, as loadtxt sizes its work per column.
    """
    width = sum(count for _, _, count in fields)
    if not (lines and width):
        for at, line in enumerate(lines):
            if line.split():
                _fault(line, lineno + at, fields)
        return [np.zeros((len(lines), count), dtype) for _, dtype, count in fields]
    if width > (len(lines[0]) + 1) // 2:
        _fault(lines[0], lineno, fields)
    table = _c_rows(lines, fields)
    if table is not None:
        return table
    done, bad = 0, len(lines)  # lines[:done] read; lines[done:bad] refused
    while bad - done > 1:
        mid = (done + bad) // 2
        if _c_rows(lines[done:mid], fields) is None:
            bad = mid
        else:
            done = mid
    _fault(lines[done], lineno + done, fields)


def _c_rows(lines: list[str], fields) -> list[np.ndarray] | None:
    """``lines`` through ``_loadtxt``, each group as a view of the table (the
    objects built from them keep copies); None for a table it refuses or
    miscounts (the reader skips blank lines)."""
    table = _loadtxt(lines, fields)
    if table is None or len(table) != len(lines):
        return None
    return [table[f"f{k}"] for k in range(len(fields))]


def _loadtxt(lines: list[str], fields):
    """``lines`` through numpy's C reader, each group one subarray field of
    its dtype, or None for text it refuses or warns about."""
    dtype = [(f"f{k}", dt, (n,)) for k, (_, dt, n) in enumerate(fields)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None


def _fault(line: str, lineno: int, fields) -> NoReturn:
    """Raise the ``FormatError`` of ``line``, line ``lineno`` of the file,
    which ``_c_rows`` refuses: its wrong field count, or the first token the
    C reader refuses alone in its column's dtype."""
    toks = line.split()
    width = sum(count for _, _, count in fields)
    if len(toks) != width:
        raise FormatError(f"line {lineno}: expected {width} fields, got {len(toks)}")
    columns = [(name, dtype) for name, dtype, count in fields for _ in range(count)]
    for tok, (name, dtype) in zip(toks, columns):
        if _loadtxt([tok], [(name, dtype, 1)]) is None:
            if np.dtype(dtype).kind == "f":
                what = "is not a number"
            else:
                what = "is out of range" if _DIGITS.fullmatch(tok) else "is not an integer"
            raise FormatError(f"line {lineno}: {name} {what}: {tok!r}")
    raise FormatError(f"line {lineno}: unreadable row")


def _rows_text(header: list[str], blocks) -> str:
    """The ``header`` lines, then per block ``(row_fmt, columns)`` one line
    ``row_fmt % row`` per row, a row joining that row of every column.
    Values print as the Python int or float they equal (via object arrays)."""
    out = [line + "\n" for line in header]
    for row_fmt, columns in blocks:
        for lo in range(0, len(columns[0]), _CHUNK):
            table = np.column_stack(
                [np.asarray(c[lo : lo + _CHUNK], dtype=object) for c in columns]
            )
            out.append((row_fmt + "\n") * len(table) % tuple(table.ravel()))
    return "".join(out)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="ascii", newline="\n")


def save_scene(scene: Scene, path) -> None:
    """Write a scene in format v1 (.sc1). See load_scene for the layout."""
    has_scores = scene.sem_scores is not None
    stuff = sorted(scene.stuff_classes)
    header = [
        f"SC1 {scene.n_points} {scene.n_classes}",
        "STUFF " + " ".join([str(len(stuff))] + [str(c) for c in stuff]),
        f"SCORES {1 if has_scores else 0}",
    ]
    columns = [scene.coords, scene.colors, scene.sem_labels, scene.inst_ids]
    row_fmt = " ".join([_F32] * 3 + ["%d"] * 5)
    if has_scores:
        columns.append(scene.sem_scores)
        row_fmt += f" {_F32}" * scene.n_classes
    _write_text(path, _rows_text(header, [(row_fmt, columns)]))


def load_scene(path) -> Scene:
    """Parse a format v1 scene file.

    Layout: line 1 ``SC1 <n_points> <n_classes>``; line 2
    ``STUFF <k> <c_1> ... <c_k>``; line 3 ``SCORES <0|1>``; then one line per
    point: ``x y z r g b sem inst [p_0 ... p_{n_classes-1}]``.

    Any invariant violation is an error naming the offending line, never a
    silent fix.
    """
    lines = _read_lines(path)
    if len(lines) < 3:
        raise FormatError("line 1: truncated file, expected SC1 header")
    n_points, n_classes = _header(lines, 1, "SC1", "n_points", "n_classes")
    if n_points < 0 or not 1 <= n_classes <= np.iinfo(np.int32).max:
        # a class id beyond int32 cannot be a sem label, nor size a score array
        raise FormatError("line 1: n_points must be >= 0 and n_classes in [1, 2147483647]")

    stuff_toks = lines[1].split(None, 2)
    if len(stuff_toks) < 2 or stuff_toks[0] != "STUFF":
        raise FormatError("line 2: malformed stuff header, expected 'STUFF <k> <ids...>'")
    (k,) = _ints(stuff_toks[1:2], 2, ["stuff count"])
    if k < 0:
        raise FormatError("line 2: stuff count must be >= 0")
    (stuff,) = _read_rows(stuff_toks[2:] or [""], 2, [("stuff class id", np.int64, k)])
    if np.any((stuff < 0) | (stuff >= n_classes)):
        raise FormatError("line 2: stuff class id out of range")

    (has_scores,) = _header(lines[2:], 3, "SCORES", "scores flag")
    if has_scores not in (0, 1):
        raise FormatError("line 3: scores flag must be 0 or 1")

    body = _body(lines, 3, n_points, "point")
    fields = [(axis, np.float32, 1) for axis in "xyz"] + [(ch, np.int64, 1) for ch in "rgb"]
    fields += [("sem label", np.int32, 1), ("instance id", np.int32, 1)]
    if has_scores:
        fields.append(("score", np.float32, n_classes))
    cols = _read_rows(body, 4, fields)
    with _point_lines(4):
        return Scene(
            n_classes=n_classes,
            coords=np.hstack(cols[0:3]),
            colors=np.hstack(cols[3:6]),
            sem_labels=cols[6][:, 0],
            inst_ids=cols[7][:, 0],
            stuff_classes=frozenset(stuff[0].tolist()),
            sem_scores=cols[8] if has_scores else None,
        )


def save_offsets(offsets: OffsetField, path) -> None:
    header = [f"OFF1 {offsets.n_points}"]
    _write_text(path, _rows_text(header, [(" ".join([_F64] * 3), [offsets.offsets])]))


def load_offsets(path) -> OffsetField:
    """Parse a format v1 offset file: ``OFF1 <n>`` then n ``dx dy dz`` lines."""
    lines = _read_lines(path)
    (n,) = _header(lines, 1, "OFF1", "n_points")
    if n < 0:
        raise FormatError("line 1: n_points must be >= 0")
    (out,) = _read_rows(_body(lines, 1, n, "offset"), 2, [("offset", np.float64, 3)])
    with _point_lines(2):
        return OffsetField(out)


def predictions_text(preds: list[InstancePrediction]) -> str:
    blocks = []
    for p in preds:
        blocks.append(("%d " + _F64 + " %d", [[p.class_id], [p.score], [p.size]]))
        blocks.append((" ".join(["%d"] * p.size), [p.point_idx[None, :]]))
    return _rows_text([f"PRED1 {len(preds)}"], blocks)


def save_predictions(preds: list[InstancePrediction], path) -> None:
    _write_text(path, predictions_text(preds))


def load_predictions(path) -> list[InstancePrediction]:
    """Parse a format v1 prediction file.

    Layout: ``PRED1 <m>`` then per prediction two lines,
    ``<class> <score> <n>`` and n space-separated point indices.  Index order
    in the file is free; duplicates are rejected.
    """
    lines = _read_lines(path)
    (m,) = _header(lines, 1, "PRED1", "prediction count")
    if m < 0:
        raise FormatError("line 1: prediction count must be >= 0")
    _body(lines, 1, 2 * m, "prediction")
    head = [("class", np.int64, 1), ("score", np.float64, 1), ("point count", np.int64, 1)]
    preds = []
    for lineno in range(2, 2 + 2 * m, 2):
        class_id, score, n = (c[0, 0].item() for c in _read_rows([lines[lineno - 1]], lineno, head))
        if n < 0:
            raise FormatError(f"line {lineno}: point count must be >= 0")
        (idx,) = _read_rows([lines[lineno]], lineno + 1, [("point index", np.int64, n)])
        idx = np.sort(idx.ravel())
        if np.any(idx[1:] == idx[:-1]):
            raise FormatError(f"line {lineno + 1}: duplicate point index")
        if idx.size and idx[0] < 0:
            raise FormatError(f"line {lineno + 1}: prediction contains a negative point index")
        try:
            preds.append(InstancePrediction(point_idx=idx, class_id=class_id, score=score))
        except SceneError as err:
            raise FormatError(f"line {lineno}: {err}") from err
    return preds


def save_scorer(model: ScorerModel, path) -> None:
    blocks = [(" ".join([_F64] * row.size), [row[None]]) for row in model._rows()]
    _write_text(path, _rows_text([f"SCORER1 {model.descriptor_dim} {model.hidden}"], blocks))


def load_scorer(path) -> ScorerModel:
    """Parse ``SCORER1 <dim> <hidden>``, then one line per row of the model,
    of ``scoring.row_widths(dim, hidden)`` values each: mean, std, the rows
    of w1, b1, w2 and b2."""
    lines = _read_lines(path)
    d, h = _header(lines, 1, "SCORER1", "dim", "hidden")
    if d < 1 or h < 1:
        raise FormatError("line 1: dimensions must be >= 1")
    widths = row_widths(d, h)
    body = _body(lines, 1, len(widths), "model")
    rows = [
        _read_rows([line], 2 + k, [("value", np.float64, width)])[0][0]
        for k, (line, width) in enumerate(zip(body, widths))
    ]
    with _point_lines(2):
        return ScorerModel._from_rows(rows)


def prediction_color(index: int) -> tuple[int, int, int]:
    """Deterministic palette keyed by prediction index (golden-angle hue)."""
    hue = (index * 0.6180339887498949) % 1.0
    r, g, b = colorsys.hsv_to_rgb(hue, 0.72, 0.95)
    return (int(r * 255), int(g * 255), int(b * 255))


def export_ply(scene: Scene, preds: list[InstancePrediction], path) -> None:
    """Write an ASCII PLY with one vertex per point.

    Points are colored by the first prediction that contains them (palette
    keyed by prediction index); points in no prediction are gray.
    """
    n = scene.n_points
    colors = np.full((n, 3), 128, dtype=np.int64)
    painted = np.zeros(n, dtype=bool)
    check_predictions(scene, preds)
    for k, p in enumerate(preds):
        fresh = p.point_idx[~painted[p.point_idx]]
        colors[fresh] = prediction_color(k)
        painted[fresh] = True
    header = ["ply", "format ascii 1.0", f"element vertex {n}"]
    header += [f"property float {axis}" for axis in "xyz"]
    header += [f"property uchar {ch}" for ch in ("red", "green", "blue")] + ["end_header"]
    row_fmt = " ".join([_F32] * 3 + ["%d"] * 3)
    _write_text(path, _rows_text(header, [(row_fmt, [scene.coords, colors])]))
