"""Text file formats: scene (.sc1), offsets (.off1), predictions (.pred1),
scorer (.scorer), PLY export.

Every format is header lines plus rows of numbers, read by one row reader
and written by one row writer.  numpy's C reader is the only number parser:
it reads every numeric field, header integers included.

Loaders stream.  One pass of fixed-size reads over the open file refuses a
non-ASCII byte, counts the lines and keeps only the header lines and the
first body line; the C reader then takes a table's rows straight from the
same file (prediction and scorer rows are read one line at a time).  A
range's list of lines is built only to name a fault, when the reader refuses
its rows: halving the refused block finds the first line it refuses, and
that line's tokens, read one by one, name the fault.  Loaders raise only
``FormatError``, naming the first faulty line.  The scan also marks a cut
near the file's middle, where ``_load_scene`` can read a scene's rows as two
ranges, two jobs of a caller's runner; ``load_scene`` reads them whole, in
this process.

Writers write one block of rows at a time, and all are byte-stable: the
same object always serializes to the same bytes, and every numeric field
round-trips exactly (floats are written with enough significant digits for
their storage precision).
"""

from __future__ import annotations

import colorsys
import io
import os
import re
import warnings
from contextlib import contextmanager
from itertools import islice
from typing import NoReturn

import numpy as np

from .core import FormatError, InstancePrediction, OffsetField, Scene, SceneError, check_predictions
from .scoring import ScorerModel, row_widths

_F32 = "%.9g"  # round-trips float32
_F64 = "%.17g"  # round-trips float64
_CHUNK = 512  # rows formatted at once: bounds the Python objects held
_READ = 1 << 16  # characters per read of a loader's scan: bounds the text held
_DIGITS = re.compile("[+-]?[0-9]+")  # an integer token the reader refuses only for its range


def _open(path):
    """``path`` as ASCII text.  Universal newlines end a line at a CR or a
    CR LF too, and a byte above 0x7f decodes to the lone surrogate
    U+DC80 + (byte - 0x80), which ``_scan`` names."""
    return open(path, encoding="ascii", errors="surrogateescape")


def _scan(fh, keep: int) -> tuple[list[str], int, tuple[int, int] | None]:
    """The first ``keep`` lines of the text file ``fh``, its line count and
    a cut near its middle, from one pass of ``_READ``-character reads that
    holds no text but those lines and one read.  A run of empty lines that
    ends the file is no line: a single trailing newline is the normal write
    shape.  The cut is the seek cookie and the index of the first line that
    starts at or after character ``half``, half the file's bytes (None for
    an empty file): the read that reaches ``half`` ends there and is
    extended to its line's end, and with universal newlines only the
    cookie, not a byte offset, marks where that line starts."""
    kept, ends, count, cut = [], 0, 0, None  # ends: newlines before this read
    half, done = os.fstat(fh.fileno()).st_size // 2, 0
    while text := fh.read(min(_READ, half - done) if done < half else _READ):
        done += len(text)
        if cut is None and done >= half:
            if not text.endswith("\n"):
                text += fh.readline()
            # past the file's last line if the extension reached its end
            cut = fh.tell(), ends + text.count("\n") + (not text.endswith("\n"))
        if not text.isascii():
            pos = re.search("[^\x00-\x7f]", text).start()
            lineno = ends + text.count("\n", 0, pos) + 1
            raise FormatError(f"line {lineno}: non-ASCII byte 0x{ord(text[pos]) - 0xDC00:02x}")
        if ends < keep:
            kept.append(text)
        breaks = text.count("\n")
        trail = len(text) - len(text.rstrip("\n"))
        if trail < len(text):  # the last line with text so far ends here
            count = ends + breaks - trail + 1
        ends += breaks
    return "".join(kept).split("\n", keep)[: min(keep, count)], count, cut


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


def _count(n_lines: int, head: int, count: int, what: str) -> None:
    """Refuse a file of ``n_lines`` lines unless ``count`` lines follow its
    ``head`` header lines and end it."""
    if n_lines != head + count:
        raise FormatError(
            f"line {min(n_lines, head + count) + 1}: expected {count} {what} lines, "
            f"found {n_lines - head}"
        )


def _table(fh, lines: list[str], head: int, count: int, fields, halves=None) -> list[np.ndarray]:
    """The ``count`` rows that follow the ``head`` header lines of the text
    file ``fh`` and end it, ``lines`` being its first lines, read as
    ``_read_rows`` reads them (``_rows``).  With ``halves``, ``(beside, path,
    cut)``, ``cut`` from ``_scan``: when the cut falls between two rows,
    ``beside([first, second])`` runs the reads of the rows before it and of
    the rows from it, the second through its own handle on ``path``.
    ``first`` reads its rows straight into the table, and ``second`` returns
    its rows (from a forked child, pickled, in ``cli._beside``), which are
    copied in after them.  Each range names its own first fault, so a fault
    before the cut is the first fault when ``first``'s is raised first."""
    if not count:
        return _read_rows([], head + 1, fields)
    _fits(lines[head], head + 1, fields)
    beside, path, (start, cut) = halves or (None, None, (0, 0))
    if not head < cut < head + count:
        return _groups(_rows(fh, 0, head, count, head + 1, fields))
    table, n = np.empty(count, _dtype(fields)), cut - head

    def first():
        table[:n] = _rows(fh, 0, head, n, head + 1, fields)

    def second():
        with _open(path) as own:
            return _rows(own, start, 0, count - n, cut + 1, fields)

    table[n:] = beside([first, second])[1]
    return _groups(table)


def _rows(fh, start, skip: int, count: int, lineno: int, fields) -> np.ndarray:
    """The ``count`` rows that follow the ``skip`` lines after the seek
    cookie ``start`` of the text file ``fh`` as one table (``_c_rows``), the
    first row being line ``lineno`` of the file: the C reader takes them
    straight from the file, sizing its table once, and their line list is
    built only for ``_bisect`` to name the fault when the reader refuses
    them."""
    fh.seek(start)
    table = _c_rows(islice(fh, skip + count), fields, skip, count)
    if table is not None:
        return table
    fh.seek(start)
    _bisect(_scan(fh, skip + count)[0][skip:], lineno, fields)


def _body_lines(fh, head: int):
    """The lines that follow the ``head`` header lines of the text file
    ``fh``, read one at a time."""
    fh.seek(0)
    return (line.rstrip("\n") for line in islice(fh, head, None))


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
    group comes back as one ``(len(lines), count)`` array of its dtype.  A
    group's ``name`` names each of its columns, or is a tuple of ``count``
    names, one per column.  numpy's C reader (``_c_rows``) parses the table
    in one call, and what it accepts is the grammar of every field; when it
    refuses the table, ``_bisect`` names the fault.  A table of no columns is
    a run of blank lines.
    """
    width = sum(count for _, _, count in fields)
    if not (lines and width):
        for at, line in enumerate(lines):
            if line.split():
                _fault(line, lineno + at, fields)
        return [np.zeros((len(lines), count), dtype) for _, dtype, count in fields]
    _fits(lines[0], lineno, fields)
    table = _c_rows(lines, fields)
    if table is not None:
        return _groups(table)
    _bisect(lines, lineno, fields)


def _bisect(lines: list[str], lineno: int, fields) -> NoReturn:
    """Name the fault of ``lines``, the first of them line ``lineno`` of the
    file, a table of ``fields`` that ``_c_rows`` refuses: halving the refused
    block down to one line finds the first line it refuses, and ``_fault``
    names what is wrong there."""
    done, bad = 0, len(lines)  # lines[:done] read; lines[done:bad] refused
    while bad - done > 1:
        mid = (done + bad) // 2
        if _c_rows(lines[done:mid], fields) is None:
            bad = mid
        else:
            done = mid
    _fault(lines[done], lineno + done, fields)


def _fits(line: str, lineno: int, fields) -> None:
    """Name the fault of ``line``, line ``lineno`` of the file, at once when
    it is too short to hold a row of ``fields``: loadtxt sizes its work per
    column."""
    if sum(count for _, _, count in fields) > (len(line) + 1) // 2:
        _fault(line, lineno, fields)


def _c_rows(text, fields, skip: int = 0, count: int | None = None) -> np.ndarray | None:
    """The rows of ``text`` through ``_loadtxt``: all of a list of lines, or
    the ``count`` rows that follow the ``skip`` first lines of an iterable of
    lines; None for a table it refuses or miscounts (the reader skips blank
    lines)."""
    count = len(text) if count is None else count
    table = _loadtxt(text, fields, skip, count)
    return None if table is None or len(table) != count else table


def _groups(table: np.ndarray) -> list[np.ndarray]:
    """Each group of a table of ``_dtype(fields)`` as a view of it (the
    objects built from them keep copies)."""
    return [table[name] for name in table.dtype.names]


def _dtype(fields) -> np.dtype:
    """The table of ``fields``: each group one subarray field of its dtype."""
    return np.dtype([(f"f{k}", dt, (n,)) for k, (_, dt, n) in enumerate(fields)])


def _loadtxt(text, fields, skip: int = 0, count: int | None = None):
    """``count`` rows of ``text`` after its ``skip`` first lines (all rows
    by default) through numpy's C reader, as a table of ``_dtype(fields)``,
    or None for text it refuses or warns about."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                text, dtype=_dtype(fields), comments=None, skiprows=skip, max_rows=count, ndmin=1
            )
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
    columns = [
        (name, dtype)
        for names, dtype, count in fields
        for name in (names if isinstance(names, tuple) else [names] * count)
    ]
    for tok, (name, dtype) in zip(toks, columns):
        if _loadtxt([tok], [(name, dtype, 1)]) is None:
            if np.dtype(dtype).kind == "f":
                what = "is not a number"
            else:
                what = "is out of range" if _DIGITS.fullmatch(tok) else "is not an integer"
            raise FormatError(f"line {lineno}: {name} {what}: {tok!r}")
    raise FormatError(f"line {lineno}: unreadable row")


def _write_rows(out, header: list[str], blocks) -> None:
    """Write the ``header`` lines to the text file ``out``, then per block
    ``(row_fmt, columns)`` one line ``row_fmt % row`` per row, a row joining
    that row of every column, as each ``_CHUNK`` rows are formatted.  Values
    print as the Python int or float they equal (via object arrays)."""
    out.write("".join(line + "\n" for line in header))
    for row_fmt, columns in blocks:
        for lo in range(0, len(columns[0]), _CHUNK):
            table = np.column_stack(
                [np.asarray(c[lo : lo + _CHUNK], dtype=object) for c in columns]
            )
            out.write((row_fmt + "\n") * len(table) % tuple(table.ravel()))


def _save(path, header: list[str], blocks) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as out:
        _write_rows(out, header, blocks)


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
    _save(path, header, [(row_fmt, columns)])


def load_scene(path) -> Scene:
    """Parse a format v1 scene file.

    Layout: line 1 ``SC1 <n_points> <n_classes>``; line 2
    ``STUFF <k> <c_1> ... <c_k>``; line 3 ``SCORES <0|1>``; then one line per
    point: ``x y z r g b sem inst [p_0 ... p_{n_classes-1}]``.

    Any invariant violation is an error naming the offending line, never a
    silent fix.
    """
    return _load_scene(path)


def _load_scene(path, beside=None) -> Scene:
    """``load_scene(path)``, its table's rows read in two ranges by
    ``beside`` if given (see ``_table``)."""
    with _open(path) as fh:
        lines, n_lines, cut = _scan(fh, 4)
        if n_lines < 3:
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

        _count(n_lines, 3, n_points, "point")
        fields = [(("x", "y", "z"), np.float32, 3), (("r", "g", "b"), np.int64, 3)]
        fields += [("sem label", np.int32, 1), ("instance id", np.int32, 1)]
        if has_scores:
            fields.append(("score", np.float32, n_classes))
        halves = beside and (beside, path, cut)
        coords, colors, labels, insts, *scores = _table(fh, lines, 3, n_points, fields, halves)
    with _point_lines(4):
        return Scene(
            n_classes=n_classes,
            coords=coords,
            colors=colors,
            sem_labels=labels[:, 0],
            inst_ids=insts[:, 0],
            stuff_classes=frozenset(stuff[0].tolist()),
            sem_scores=scores[0] if has_scores else None,
        )


def save_offsets(offsets: OffsetField, path) -> None:
    header = [f"OFF1 {offsets.n_points}"]
    _save(path, header, [(" ".join([_F64] * 3), [offsets.offsets])])


def load_offsets(path) -> OffsetField:
    """Parse a format v1 offset file: ``OFF1 <n>`` then n ``dx dy dz`` lines."""
    with _open(path) as fh:
        lines, n_lines, _ = _scan(fh, 2)
        (n,) = _header(lines, 1, "OFF1", "n_points")
        if n < 0:
            raise FormatError("line 1: n_points must be >= 0")
        _count(n_lines, 1, n, "offset")
        (out,) = _table(fh, lines, 1, n, [("offset", np.float64, 3)])
    with _point_lines(2):
        return OffsetField(out)


def _prediction_rows(preds: list[InstancePrediction]):
    """The header and blocks of rows of a prediction file."""
    blocks = []
    for p in preds:
        blocks.append(("%d " + _F64 + " %d", [[p.class_id], [p.score], [p.size]]))
        blocks.append((" ".join(["%d"] * p.size), [p.point_idx[None, :]]))
    return [f"PRED1 {len(preds)}"], blocks


def predictions_text(preds: list[InstancePrediction]) -> str:
    out = io.StringIO()
    _write_rows(out, *_prediction_rows(preds))
    return out.getvalue()


def save_predictions(preds: list[InstancePrediction], path) -> None:
    _save(path, *_prediction_rows(preds))


def load_predictions(path) -> list[InstancePrediction]:
    """Parse a format v1 prediction file.

    Layout: ``PRED1 <m>`` then per prediction two lines,
    ``<class> <score> <n>`` and n space-separated point indices.  Index order
    in the file is free; duplicates are rejected.
    """
    head = [("class", np.int64, 1), ("score", np.float64, 1), ("point count", np.int64, 1)]
    preds = []
    with _open(path) as fh:
        lines, n_lines, _ = _scan(fh, 1)
        (m,) = _header(lines, 1, "PRED1", "prediction count")
        if m < 0:
            raise FormatError("line 1: prediction count must be >= 0")
        _count(n_lines, 1, 2 * m, "prediction")
        body = _body_lines(fh, 1)
        for lineno in range(2, 2 + 2 * m, 2):
            class_id, score, n = (c[0, 0].item() for c in _read_rows([next(body)], lineno, head))
            if n < 0:
                raise FormatError(f"line {lineno}: point count must be >= 0")
            (idx,) = _read_rows([next(body)], lineno + 1, [("point index", np.int64, n)])
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
    _save(path, [f"SCORER1 {model.descriptor_dim} {model.hidden}"], blocks)


def load_scorer(path) -> ScorerModel:
    """Parse ``SCORER1 <dim> <hidden>``, then one line per row of the model,
    of ``scoring.row_widths(dim, hidden)`` values each: mean, std, the rows
    of w1, b1, w2 and b2."""
    with _open(path) as fh:
        lines, n_lines, _ = _scan(fh, 1)
        d, h = _header(lines, 1, "SCORER1", "dim", "hidden")
        if d < 1 or h < 1:
            raise FormatError("line 1: dimensions must be >= 1")
        _count(n_lines, 1, h + 5, "model")  # before row_widths lists h + 5 widths
        widths = row_widths(d, h)
        rows = [
            _read_rows([line], 2 + k, [("value", np.float64, width)])[0][0]
            for k, (line, width) in enumerate(zip(_body_lines(fh, 1), widths))
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
    _save(path, header, [(row_fmt, [scene.coords, colors])])
