"""Text file formats: scene (.sc1), offsets (.off1), predictions (.pred1),
scorer (.scorer), PLY export.

Every format is header lines plus rows of numbers, read by one row reader
(numpy's C reader, and a token walk for what it refuses) and written by one
row writer.  Loaders raise only ``FormatError``, naming the first faulty
line.  All writers are byte-stable: the same object always serializes to the
same bytes, and every numeric field round-trips exactly (floats are written
with enough significant digits for their storage precision).
"""

from __future__ import annotations

import colorsys
import re
import warnings
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import FormatError, InstancePrediction, OffsetField, Scene, SceneError, check_predictions
from .scoring import ScorerModel

_F32 = "%.9g"  # round-trips float32
_F64 = "%.17g"  # round-trips float64
_CHUNK = 4096  # rows formatted at once: bounds the Python objects held
_WIDE = {"i": np.int64, "f": np.float64}  # parse dtype per kind, narrowed after


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


def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} is not an integer: {tok!r}") from None


def _parse_float(tok: str, lineno: int, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise FormatError(f"line {lineno}: {what} is not a number: {tok!r}") from None


def _header(lines: list[str], lineno: int, tag: str, *names: str) -> list[int]:
    """The integers of ``lines[0]``, line ``lineno`` of the file, which must
    read ``<tag> <name>...``."""
    toks = lines[0].split() if lines else []
    if len(toks) != 1 + len(names) or toks[0] != tag:
        expected = " ".join([tag] + [f"<{name}>" for name in names])
        raise FormatError(f"line {lineno}: malformed header, expected '{expected}'")
    return [_parse_int(tok, lineno, name) for tok, name in zip(toks[1:], names)]


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
    """Re-raise a SceneError as a FormatError naming the line of its point,
    point 0 being on line ``first``."""
    try:
        yield
    except SceneError as err:
        if err.point_index is None:
            raise FormatError(str(err)) from err
        raise FormatError(f"line {first + err.point_index}: {err}") from err


def _narrow(block: np.ndarray, dtype) -> np.ndarray:
    """``block`` cast to ``dtype``: OverflowError for an int that does not fit, inf
    for a float beyond float32."""
    with np.errstate(over="ignore"):
        out = block.astype(dtype)
    if out.dtype.kind == "i" and np.any(out != block):
        raise OverflowError(f"integer out of range for {out.dtype}")
    return out


def _read_rows(lines: list[str], lineno: int, fields) -> list[np.ndarray]:
    """Parse ``lines``, the first of them line ``lineno`` of the file, as a table.

    ``fields`` lists its columns as ``(name, dtype, count)`` groups, and each
    group comes back as one ``(len(lines), count)`` array.  numpy's C reader
    (``_c_rows``) parses the table in one call.  When it refuses the table,
    halving the refused block down to one line finds the first line it
    refuses, and ``_walk_rows`` reads from that line on: it accepts what
    Python's ``int``/``float`` accept (``1_0``) or raises ``FormatError`` for
    the first faulty line.  A row wider than the first line can hold goes to
    the walk at once, as loadtxt sizes its work per column.
    """
    width = sum(count for _, _, count in fields)
    if not (lines and 0 < width <= (len(lines[0]) + 1) // 2):
        return _walk_rows(lines, lineno, fields)
    table = _c_rows(lines, fields)
    if table is not None:
        return table
    parts, done, bad = [], 0, len(lines)  # read lines[:done]; lines[done:bad] refused
    while bad - done > 1:
        mid = (done + bad) // 2
        part = _c_rows(lines[done:mid], fields)
        if part is None:
            bad = mid
        else:
            parts.append(part)
            done = mid
    parts.append(_walk_rows(lines[done:], lineno + done, fields))
    return [np.concatenate(group) for group in zip(*parts)]


def _c_rows(lines: list[str], fields) -> list[np.ndarray] | None:
    """``lines`` through numpy's C reader, each group as one int64 or float64
    subarray field that ``_narrow`` then casts; None for a table the reader
    refuses, warns about or miscounts (it skips blank lines), or that does
    not narrow."""
    wide = [(f"f{k}", _WIDE[np.dtype(dt).kind], (n,)) for k, (_, dt, n) in enumerate(fields)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=wide, comments=None, ndmin=1)
        if len(table) == len(lines):
            return [_narrow(table[f"f{k}"], dt) for k, (_, dt, _) in enumerate(fields)]
    except (ValueError, OverflowError, Warning):
        pass
    return None


def _walk_rows(lines: list[str], lineno: int, fields) -> list[np.ndarray]:
    """``_read_rows`` token by token with Python's ``int`` and ``float`` into typed
    buffers; a fault is the first line's wrong field count or first bad field."""
    width = sum(count for _, _, count in fields)
    ranges = [np.iinfo(dt) if np.dtype(dt).kind == "i" else None for _, dt, _ in fields]
    cols = [array("d" if info is None else "q") for info in ranges]
    for at, line in enumerate(lines, start=lineno):
        toks = line.split()
        if len(toks) != width:
            raise FormatError(f"line {at}: expected {width} fields, got {len(toks)}")
        pos = 0
        for (name, _, count), info, col in zip(fields, ranges, cols):
            for tok in toks[pos : pos + count]:
                value = _parse_float(tok, at, name) if info is None else _parse_int(tok, at, name)
                if info is not None and not info.min <= value <= info.max:
                    raise FormatError(f"line {at}: {name} is out of range: {tok!r}")
                col.append(value)
            pos += count
    return [
        _narrow(np.asarray(col).reshape(len(lines), count), dtype)
        for col, (_, dtype, count) in zip(cols, fields)
    ]


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
    k = _parse_int(stuff_toks[1], 2, "stuff count")
    if k < 0:
        raise FormatError("line 2: stuff count must be >= 0")
    (stuff,) = _read_rows(stuff_toks[2:] or [""], 2, [("stuff class id", np.int64, k)])
    if np.any((stuff < 0) | (stuff >= n_classes)):
        raise FormatError("line 2: stuff class id out of range")

    score_toks = lines[2].split()
    if len(score_toks) != 2 or score_toks[0] != "SCORES" or score_toks[1] not in ("0", "1"):
        raise FormatError("line 3: malformed scores header, expected 'SCORES <0|1>'")
    has_scores = score_toks[1] == "1"

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
        uniq = np.unique(idx)
        if uniq.size != idx.size:
            raise FormatError(f"line {lineno + 1}: duplicate point index")
        if uniq.size and uniq[0] < 0:
            raise FormatError(f"line {lineno + 1}: prediction contains a negative point index")
        try:
            preds.append(InstancePrediction(point_idx=uniq, class_id=class_id, score=score))
        except SceneError as err:
            raise FormatError(f"line {lineno}: {err}") from err
    return preds


def save_scorer(model: ScorerModel, path) -> None:
    d, h = model.descriptor_dim, model.hidden
    blocks = [
        (" ".join([_F64] * d), [np.vstack([model.mean, model.std, model.w1])]),
        (" ".join([_F64] * h), [np.vstack([model.b1, model.w2])]),
        (_F64, [[model.b2]]),
    ]
    _write_text(path, _rows_text([f"SCORER1 {d} {h}"], blocks))


def load_scorer(path) -> ScorerModel:
    """Parse ``SCORER1 <dim> <hidden>`` and the rows mean, std, w1..., b1, w2,
    b2.  Blank lines are skipped; errors name the line as the file numbers it."""
    numbered = [(at, line) for at, line in enumerate(_read_lines(path), start=1) if line.strip()]
    lines = [line for _, line in numbered]
    head = numbered[0][0] if numbered else 1
    d, h = _header(lines, head, "SCORER1", "dim", "hidden")
    if d < 1 or h < 1:
        raise FormatError(f"line {head}: dimensions must be >= 1")
    expect = 1 + 2 + h + 3
    if len(lines) != expect:
        # the first surplus line, or the last line of a short file
        at = numbered[min(expect, len(lines) - 1)][0]
        raise FormatError(f"line {at}: expected {expect} lines for a {d}x{h} scorer, got {len(lines)}")

    def rows(lo: int, hi: int, width: int) -> np.ndarray:
        return np.vstack(
            [_read_rows([line], at, [("value", np.float64, width)])[0] for at, line in numbered[lo:hi]]
        )

    by_dim, by_hidden, b2 = rows(1, 3 + h, d), rows(3 + h, 5 + h, h), rows(5 + h, 6 + h, 1)
    try:
        return ScorerModel(by_dim[0], by_dim[1], by_dim[2:], by_hidden[0], by_hidden[1], b2[0, 0])
    except ValueError as err:
        # the model checks its rows in file order for a non-finite value, then the std row
        bad = [k for k, row in enumerate((*by_dim, *by_hidden, *b2)) if not np.isfinite(row).all()]
        raise FormatError(f"line {numbered[1 + (bad + [1])[0]][0]}: {err}") from err


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
