import errno
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cloudinst.core import FormatError, InstancePrediction, OffsetField, Scene, SceneError
from cloudinst import cli, formats
from cloudinst.formats import (
    _read_rows,
    export_ply,
    load_offsets,
    load_predictions,
    load_scorer,
    save_offsets,
    save_predictions,
    save_scene,
    save_scorer,
)
from cloudinst.core import scenes_equal
from cloudinst.scoring import ScorerModel
from cloudinst.synth import GenConfig, generate_scene

from conftest import load_by_lines, make_scene, package_uses, run_alone, traced_peak, walk_rows


def _split(path, fork: bool = True):
    """``formats._load_scene(path)`` through ``cli._beside``, as ``cloudinst
    evaluate`` reads its scene, with or without ``os.fork``: its parts or its
    FormatError message (``_loaded``), and the rows of its first range (None
    when it read the rows whole)."""
    ranges, rows = [], formats._rows

    def beside(*calls):
        ranges.append(None)
        return cli._beside(*calls)

    def counted_rows(fh, start, skip, count, *args):
        ranges.append(count)  # the first range's read comes first, in this process
        return rows(fh, start, skip, count, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_rows", counted_rows)
        if not fork:
            patch.delattr(os, "fork")
        outcome = _loaded(lambda p: formats._load_scene(p, beside), path)
    return outcome, ranges[1] if ranges[:1] == [None] else None


def load_scene(path) -> Scene:
    """``formats.load_scene(path)``, which the split reader must match, with
    and without ``os.fork``: every scene case of this file goes through both."""
    want = _loaded(formats.load_scene, path)
    assert _split(path, True)[0] == _split(path, False)[0] == want
    return formats.load_scene(path)


VALID_TWO_POINT = """SC1 2 3
STUFF 1 0
SCORES 0
0.5 0.25 0 10 20 30 1 0
0.5 0.26 0 10 20 30 1 0
"""


def test_two_point_file_loads(tmp_path):
    path = tmp_path / "a.sc1"
    path.write_text(VALID_TWO_POINT)
    scene = load_scene(path)
    assert scene.n_points == 2
    assert scene.n_classes == 3
    assert scene.stuff_classes == {0}
    assert scene.sem_scores is None
    assert scene.inst_ids.tolist() == [0, 0]


def test_instance_spanning_two_labels_names_line(tmp_path):
    path = tmp_path / "bad.sc1"
    path.write_text(
        "SC1 2 3\nSTUFF 1 0\nSCORES 0\n"
        "0 0 0 1 2 3 1 0\n"
        "1 0 0 1 2 3 2 0\n"
    )
    with pytest.raises(FormatError, match="line 5.*instance label inconsistency"):
        load_scene(path)


@pytest.mark.parametrize(
    "content,match",
    [
        ("SCX 2 3\nSTUFF 0\nSCORES 0\n", "line 1.*header"),
        ("SC1 x 3\nSTUFF 0\nSCORES 0\n", "line 1"),
        ("SC1 1 3\nSTUFF 2 0\nSCORES 0\n0 0 0 1 2 3 1 -1\n", "line 2"),
        ("SC1 1 3\nSTUFF 0\nSCORES 2\n0 0 0 1 2 3 1 -1\n", "line 3"),
        ("SC1 1 3\nSTUFF 0\nSCORES 0\n0 0 0 1 2 3 1\n", "line 4: expected 8 fields"),
        ("SC1 2 3\nSTUFF 0\nSCORES 0\n0 0 0 1 2 3 1 -1\n", "expected 2 point lines"),
        ("SC1 1 3\nSTUFF 0\nSCORES 0\n0 0 zz 1 2 3 1 -1\n", "line 4"),
        ("SC1 0 99999999999999999999\nSTUFF 0\nSCORES 1\n", "line 1: .*n_classes"),
        ("SC1 1 3\nSTUFF 1 7\nSCORES 0\n0 0 0 1 2 3 1 -1\n", "^line 2: stuff class id out of range$"),
        ("SC1 0 3\nSTUFF -1\nSCORES 0\n", "^line 2: stuff count must be >= 0$"),
        ("PRED1 1\n1 0.5 2\n0 1\n3 0.5 1\n7\n", "^line 4: expected 2 prediction lines, found 4$"),
        ("PRED1 2\n1 0.5 1\n0\n", "^line 4: expected 4 prediction lines, found 2$"),
        ("PRED1 1\n1 0.5 -1\n5\n", "^line 2: point count must be >= 0$"),
        ("PRED1 -1\n", "^line 1: prediction count must be >= 0$"),
        ("OFF1 -1\n", "^line 1: n_points must be >= 0$"),
    ],
)
def test_malformed_files_rejected(tmp_path, content, match):
    path = tmp_path / "bad"
    path.write_text(content)
    load = {"PRED1": load_predictions, "OFF1": load_offsets}.get(content.split()[0], load_scene)
    with pytest.raises(FormatError, match=match):
        load(path)


def test_roundtrip_identity_many_seeded_scenes(tmp_path):
    for seed in range(100):
        cfg = GenConfig(
            seed=seed, n_objects=2, density=250.0, stuff_density=8.0,
            min_object_points=20,
        )
        scene, _ = generate_scene(cfg)
        path = tmp_path / f"s{seed}.sc1"
        save_scene(scene, path)
        first = path.read_bytes()
        again = load_scene(path)
        assert scenes_equal(scene, again), seed
        save_scene(again, path)
        assert path.read_bytes() == first, seed  # byte-stable when written twice


def test_all_stuff_scene_roundtrips(tmp_path):
    scene = make_scene(
        [[0, 0, 0], [1, 1, 0]], [0, 0], [-1, -1], sem_scores=None
    )
    path = tmp_path / "stuff.sc1"
    save_scene(scene, path)
    assert scenes_equal(scene, load_scene(path))


def test_tiny_scores_roundtrip(tmp_path):
    eps = np.float32(1e-6)
    row = np.array([1.0 - 3 * eps, eps, eps, eps], dtype=np.float32)
    scores = np.tile(row, (2, 1))
    scene = make_scene(
        [[0, 0, 0], [0.5, 0, 0]], [0, 0], [-1, -1],
        stuff_classes=frozenset(), sem_scores=scores,
    )
    path = tmp_path / "scores.sc1"
    save_scene(scene, path)
    back = load_scene(path)
    assert np.array_equal(back.sem_scores, scene.sem_scores)


def test_targeted_corruptions_rejected_benign_accepted(tmp_path):
    cfg = GenConfig(seed=3, n_objects=2, density=250.0, stuff_density=8.0,
                    min_object_points=20)
    scene, _ = generate_scene(cfg)
    path = tmp_path / "c.sc1"
    save_scene(scene, path)
    lines = path.read_text().split("\n")

    def write(mutated):
        path.write_text("\n".join(mutated))

    # violate: instance id made non-contiguous
    first_inst = next(i for i, l in enumerate(lines[3:], start=3) if l.split()[7] == "0")
    toks = lines[first_inst].split()
    mutated = lines.copy()
    all_inst0 = [i for i, l in enumerate(lines[3:], start=3) if len(l.split()) > 7 and l.split()[7] == "0"]
    for i in all_inst0:
        t = lines[i].split()
        t[7] = "7"
        mutated[i] = " ".join(t)
    write(mutated)
    with pytest.raises(FormatError):
        load_scene(path)

    # violate: semantic label out of range
    mutated = lines.copy()
    toks = mutated[3].split()
    toks[6] = "99"
    mutated[3] = " ".join(toks)
    write(mutated)
    with pytest.raises(FormatError):
        load_scene(path)

    # violate: score row no longer sums to one
    mutated = lines.copy()
    toks = mutated[3].split()
    toks[8] = "0.9"
    toks[9] = "0.9"
    mutated[3] = " ".join(toks)
    write(mutated)
    with pytest.raises(FormatError):
        load_scene(path)

    # benign: color change still loads (load rejects exactly the violations)
    mutated = lines.copy()
    toks = mutated[3].split()
    toks[3] = "77"
    mutated[3] = " ".join(toks)
    write(mutated)
    loaded = load_scene(path)
    assert loaded.colors[0, 0] == 77


def test_offsets_roundtrip_and_errors(tmp_path):
    off = OffsetField(np.array([[0.1, -0.2, 1e-17], [5, 6, 7]]))
    path = tmp_path / "a.off1"
    save_offsets(off, path)
    back = load_offsets(path)
    assert np.array_equal(back.offsets, off.offsets)
    path.write_text("OFF1 2\n0 0 0\n")
    with pytest.raises(FormatError, match="expected 2 offset lines"):
        load_offsets(path)
    path.write_text("OFF1 1\n0 0\n")
    with pytest.raises(FormatError, match="line 2"):
        load_offsets(path)


def test_predictions_roundtrip(tmp_path):
    preds = [
        InstancePrediction(point_idx=[0, 4, 7], class_id=2, score=0.75),
        InstancePrediction(point_idx=[1], class_id=1, score=1.0),
    ]
    path = tmp_path / "p.pred1"
    save_predictions(preds, path)
    back = load_predictions(path)
    assert len(back) == 2
    assert back[0].point_idx.tolist() == [0, 4, 7]
    assert back[0].score == 0.75
    save_predictions(back, path)
    text1 = path.read_bytes()
    save_predictions(back, path)
    assert path.read_bytes() == text1


def test_predictions_unsorted_indices_accepted_duplicates_rejected(tmp_path):
    path = tmp_path / "p.pred1"
    path.write_text("PRED1 1\n2 0.5 3\n7 0 4\n")
    back = load_predictions(path)
    assert back[0].point_idx.tolist() == [0, 4, 7]
    path.write_text("PRED1 1\n2 0.5 3\n7 7 4\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_predictions(path)
    path.write_text("PRED1 1\n2 1.5 1\n7\n")
    with pytest.raises(FormatError, match="score"):
        load_predictions(path)


def test_predictions_negative_index_names_its_line(tmp_path):
    path = tmp_path / "p.pred1"
    path.write_text("PRED1 2\n1 0.5 2\n0 1\n2 0.5 2\n3 -4\n")
    with pytest.raises(FormatError, match="^line 5: prediction contains a negative point index$"):
        load_predictions(path)


def test_export_ply_gray_single_color_and_determinism(tmp_path, simple_scene):
    path = tmp_path / "a.ply"
    export_ply(simple_scene, [], path)
    text = path.read_text().split("\n")
    assert text[2] == f"element vertex {simple_scene.n_points}"
    body = text[10 : 10 + simple_scene.n_points]
    assert all(line.endswith("128 128 128") for line in body)

    pred = InstancePrediction(
        point_idx=np.arange(simple_scene.n_points), class_id=1, score=1.0
    )
    export_ply(simple_scene, [pred], path)
    body = path.read_text().split("\n")[10:][: simple_scene.n_points]
    colors = {" ".join(line.split()[3:]) for line in body}
    assert len(colors) == 1 and "128 128 128" not in colors

    export_ply(simple_scene, [pred], tmp_path / "b.ply")
    assert (tmp_path / "b.ply").read_bytes() == path.read_bytes()


def test_export_ply_out_of_range_index(tmp_path, simple_scene):
    pred = InstancePrediction(point_idx=[99], class_id=1, score=1.0)
    with pytest.raises(SceneError, match="references point"):
        export_ply(simple_scene, [pred], tmp_path / "x.ply")


# --- every loader raises only FormatError, naming the line -----------------

LOADERS = {
    "sc1": load_scene,
    "off1": load_offsets,
    "pred1": load_predictions,
    "scorer": load_scorer,
}

# small valid files, one per format
VALID = {
    "sc1": (
        "SC1 3 3\nSTUFF 1 0\nSCORES 1\n"
        "0.5 0.25 0 10 20 30 1 0 0.1 0.8 0.1\n"
        "0.5 0.26 0 10 20 30 1 0 0.2 0.7 0.1\n"
        "1 1 1 0 0 0 0 -1 0.9 0.05 0.05\n"
    ),
    "off1": "OFF1 2\n0.1 -0.2 1e-17\n5 6 7\n",
    "pred1": "PRED1 2\n2 0.75 3\n0 4 7\n1 1 1\n1\n",
    "scorer": "SCORER1 2 2\n0 0.5\n1 2\n0.1 -0.2\n0.3 0.4\n0 0\n1 -1\n0.25\n",
}


def test_valid_files_load(tmp_path):
    for kind, text in VALID.items():
        path = tmp_path / f"v.{kind}"
        path.write_text(text)
        LOADERS[kind](path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "kind,load",
    [
        ("sc1", formats.load_scene),
        ("sc1", lambda path: formats._load_scene(path, cli._beside)),
        ("off1", load_offsets),
        ("pred1", load_predictions),
        ("scorer", load_scorer),
    ],
    ids=["sc1", "sc1 in two ranges", "off1", "pred1", "scorer"],
)
def test_a_pipe_is_refused_by_name_before_any_read(kind, load):
    # the scan's cut and every table read seek: a valid file through a pipe
    # is refused when it is opened, and the pipe still holds every byte
    r, w = os.pipe()
    os.write(w, VALID[kind].encode())
    os.close(w)
    path = f"/dev/fd/{r}"
    try:
        with pytest.raises(OSError, match=re.escape(f"regular file: '{path}'")) as err:
            load(path)
        assert err.value.errno == errno.EINVAL and err.value.filename == path
        assert os.read(r, 1 << 16) == VALID[kind].encode()
    finally:
        os.close(r)


# each loader as a call on ``path``, run in a process of its own
LOADER_CALLS = {
    "sc1": "formats.load_scene(path)",
    "sc1 in two ranges": "formats._load_scene(path, cli._beside)",
    "off1": "formats.load_offsets(path)",
    "pred1": "formats.load_predictions(path)",
    "scorer": "formats.load_scorer(path)",
}


def _load_alone(call: str, path) -> tuple[str, int]:
    """``call`` on ``path`` in a process of its own (``run_alone``): what it
    raised, or "loaded", and the peak of the memory it traced, in bytes."""
    outcome, peak = run_alone(
        "import sys, tracemalloc\n"
        "from cloudinst import cli, formats\n"
        "path = sys.argv[1]\n"
        "tracemalloc.start()\n"
        "try:\n"
        f"    {call}\n"
        "    print('loaded')\n"
        "except Exception as err:\n"
        "    print(f'{type(err).__name__}: {err}')\n"
        "print(tracemalloc.get_traced_memory()[1])\n",
        path,
    )
    return outcome, int(peak)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("call", LOADER_CALLS.values(), ids=LOADER_CALLS.keys())
def test_a_device_is_refused_by_name_before_any_read(call):
    # /dev/zero never ends a line, and its scan held every read
    outcome, _ = _load_alone(call, "/dev/zero")
    assert outcome == f"OSError: [Errno {errno.EINVAL}] input must be a regular file: '/dev/zero'"


@pytest.mark.parametrize("call", LOADER_CALLS.values(), ids=LOADER_CALLS.keys())
def test_a_gibibyte_of_zeros_is_refused_at_line_1_in_bounded_memory(tmp_path, call):
    # a sparse file: NUL is ASCII, and no newline ends line 1
    path = tmp_path / "zeros"
    with open(path, "wb") as out:
        out.truncate(1 << 30)
    outcome, peak = _load_alone(call, path)
    assert outcome == f"FormatError: line 1: no line end within {formats._LONG} characters"
    assert peak < formats._LONG + (16 << 20)


ROWS_10 = "0 0 0\n" * 10  # rows that keep half the file beyond the lines tested


@pytest.mark.parametrize(
    "text,error",
    [
        ("OFF1 10" + " " * 5 + "\n" + ROWS_10, None),  # line 1 of 12 characters
        ("OFF1 10" + " " * 9 + "\n" + ROWS_10, "line 1: no line end within 12 characters"),
        ("OFF1 1" + " " * 20, "line 1: no line end within 12 characters"),
        ("OFF1 10\n0 0 0" + " " * 15 + "\n" + ROWS_10[6:], "line 2: no line end within 12 characters"),
        ("OFF1 10\n0 0 0\n0 0 0" + " " * 30 + "\n" + ROWS_10[12:], None),  # a line not kept
    ],
    ids=["12 characters", "16 characters", "no line end", "line 2", "line 3 not kept"],
)
def test_the_scan_refuses_a_kept_line_longer_than_its_bound(tmp_path, monkeypatch, text, error):
    # reads of 4 characters: a line is refused when a read ends more than 12 into it
    monkeypatch.setattr(formats, "_READ", 4)
    monkeypatch.setattr(formats, "_LONG", 12)
    path = tmp_path / "long.off1"
    path.write_text(text)
    if error is None:
        assert load_offsets(path).n_points == 10
    else:
        with pytest.raises(FormatError, match=f"^{error}$"):
            load_offsets(path)


@pytest.mark.parametrize(
    "kind,data,line",
    [
        ("sc1", VALID["sc1"].encode().replace(b"0.26", b"0.2\xe9"), 5),
        ("off1", b"OFF1 1\n0 0 \xff\n", 2),
        ("pred1", b"PRED1 1\n2 0.5 1\n\x807\n", 3),
        ("scorer", b"SCORER1 2 2\xa0\n", 1),
    ],
    ids=["sc1", "off1", "pred1", "scorer"],
)
def test_non_ascii_byte_names_its_line(tmp_path, kind, data, line):
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=f"line {line}: non-ASCII byte"):
        LOADERS[kind](path)


TOKENS = ["1_0", "+5", "07", "-0", "1.0", "1e5", "nan", "inf", "0x10"]
INTEGERS = {"+5", "07", "-0"}  # no "_" digit separators
FINITE = INTEGERS | {"1.0", "1e5"}


def _rows_for(tok: str) -> int:
    """Body size for a count field holding ``tok``."""
    try:
        return max(int(tok), 0)
    except ValueError:
        return 1


def _token_file(kind: str, int_tok: str = "1", float_tok: str = "0.5") -> str:
    """One int field and one float field of each format, filled with tokens."""
    if kind == "sc1":  # int: red; float: x
        return f"SC1 1 3\nSTUFF 0\nSCORES 0\n{float_tok} 0 0 {int_tok} 2 3 1 0\n"
    if kind == "off1":  # int: point count; float: dx
        return f"OFF1 {int_tok}\n" + f"{float_tok} 0 0\n" * _rows_for(int_tok)
    if kind == "pred1":  # int: class; float: score
        return f"PRED1 1\n{int_tok} {float_tok} 1\n3\n"
    h = _rows_for(int_tok)  # scorer; int: hidden size; float: first w1 value
    zeros = " ".join(["0"] * h)
    return (
        f"SCORER1 2 {int_tok}\n0 0\n1 1\n{float_tok} 0\n" + "0 0\n" * (h - 1)
        + f"{zeros}\n{zeros}\n0\n"
    )


# accepted tokens per (format, field); every other token is a FormatError
ACCEPTED = {
    ("sc1", "int"): INTEGERS,
    ("sc1", "float"): FINITE,
    ("off1", "int"): INTEGERS,
    ("off1", "float"): FINITE,
    ("pred1", "int"): INTEGERS,
    ("pred1", "float"): {"-0", "1.0"},  # scores lie in [0, 1]
    ("scorer", "int"): INTEGERS - {"-0"},  # at least one hidden unit
    ("scorer", "float"): FINITE,
}


@pytest.mark.parametrize("kind,field", sorted(ACCEPTED))
@pytest.mark.parametrize("tok", TOKENS)
def test_token_table(tmp_path, kind, field, tok):
    path = tmp_path / f"t.{kind}"
    path.write_text(_token_file(kind, **{f"{field}_tok": tok}))
    if tok in ACCEPTED[kind, field]:
        LOADERS[kind](path)
    else:
        with pytest.raises(FormatError):
            LOADERS[kind](path)


def test_first_faulty_line_and_field_are_named(tmp_path):
    # a bad value on line 5 and a wrong field count on line 9: line 5 wins
    rows = ["0 0 0 1 2 3 1 -1"] * 6
    rows[1] = "0 0 zz 1 2 q 1 -1"
    rows[5] = "0 0 0 1 2 3 1"
    path = tmp_path / "two.sc1"
    path.write_text("SC1 6 3\nSTUFF 0\nSCORES 0\n" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError, match="line 5: z is not a number: 'zz'"):
        load_scene(path)
    rows[1] = "0 0 0 1 2 3 1 -1"
    path.write_text("SC1 6 3\nSTUFF 0\nSCORES 0\n" + "\n".join(rows) + "\n")
    with pytest.raises(FormatError, match="line 9: expected 8 fields, got 7"):
        load_scene(path)


@pytest.mark.parametrize(
    "kind,text,match",
    [
        ("sc1", "SC1 1 3\nSTUFF 0\nSCORES 0\n0 0 0 1 2 3 1 2147483648\n", "line 4: instance id"),
        ("sc1", "SC1 1 3\nSTUFF 0\nSCORES 0\n0 0 0 1 2 9223372036854775808 1 -1\n", "line 4: b"),
        ("pred1", "PRED1 1\n2 0.5 1\n9223372036854775808\n", "line 3: point index"),
    ],
    ids=["int32", "int64", "index"],
)
def test_integer_beyond_its_column_is_a_format_error(tmp_path, kind, text, match):
    path = tmp_path / f"big.{kind}"
    path.write_text(text)
    with pytest.raises(FormatError, match=match + " is out of range"):
        LOADERS[kind](path)


_BYTES = st.one_of(st.sampled_from(b" \t\r\n-+._eExn0123456789"), st.integers(0, 255))


@st.composite
def _garbled(draw, text: str) -> bytes:
    """``text`` truncated at a byte, or with bytes or lines replaced, deleted
    or duplicated."""
    data = bytearray(text.encode("ascii"))
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        j = draw(st.integers(i, min(len(data), i + 4)))
        op = draw(st.sampled_from(
            ["truncate", "replace", "delete", "duplicate", "drop line", "repeat line"]
        ))
        if op == "truncate":
            del data[i:]
        elif op == "replace":
            data[i] = draw(_BYTES)
        elif op == "delete":
            del data[i:j]
        elif op == "duplicate":
            data[i:i] = data[i:j]
        else:
            lines = bytes(data).split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            if op == "drop line":
                del lines[k]
            else:
                lines.insert(k, lines[k])
            data = bytearray(b"\n".join(lines))
    return bytes(data)


def _parts(loaded) -> list:
    """What a loader returned, each array as (dtype, shape, bytes)."""
    if isinstance(loaded, Scene):
        parts = [loaded.coords, loaded.colors, loaded.sem_labels, loaded.inst_ids]
        parts += [loaded.sem_scores, loaded.n_classes, sorted(loaded.stuff_classes)]
    elif isinstance(loaded, OffsetField):
        parts = [loaded.offsets]
    elif isinstance(loaded, ScorerModel):
        parts = loaded._rows()
    else:
        parts = [x for p in loaded for x in (p.point_idx, p.class_id, p.score)]
    return [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a for a in parts]


def _loaded(load, path):
    try:
        return _parts(load(path))
    except FormatError as err:
        return str(err)


def _streamed_as_by_lines(kind, path):
    """The streamed loader's arrays or FormatError message, which must be
    the line-list route's."""
    streamed = _loaded(LOADERS[kind], path)
    assert streamed == _loaded(lambda p: load_by_lines(LOADERS[kind], p), path)
    return streamed


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_garbled_files_raise_only_format_error(tmp_path, kind, data):
    # and the streamed loader returns the arrays or the message of the
    # line-list route, whatever the size of the scan's reads
    path = tmp_path / f"g.{kind}"
    path.write_bytes(data.draw(_garbled(VALID[kind])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_READ", data.draw(st.sampled_from([1, 2, 7, formats._READ])))
        _streamed_as_by_lines(kind, path)


def _reference_text(header, rows):
    """The per-row loop the writers replaced, kept as their reference."""
    return "\n".join(header + [" ".join(row) for row in rows]) + "\n"


@pytest.mark.parametrize("with_scores", [True, False])
def test_writers_match_the_per_row_reference(tmp_path, with_scores):
    cfg = GenConfig(seed=5, n_objects=3, density=300.0, stuff_density=10.0)
    scene, offsets = generate_scene(cfg)
    if not with_scores:
        scene = make_scene(
            scene.coords, scene.sem_labels, scene.inst_ids, n_classes=scene.n_classes,
            stuff_classes=scene.stuff_classes, sem_scores=None, colors=scene.colors,
        )
    f32 = lambda v: "%.9g" % v  # noqa: E731
    f64 = lambda v: "%.17g" % v  # noqa: E731
    rows = []
    for i in range(scene.n_points):
        row = [f32(v) for v in scene.coords[i]] + [str(int(v)) for v in scene.colors[i]]
        row += [str(int(scene.sem_labels[i])), str(int(scene.inst_ids[i]))]
        if with_scores:
            row += [f32(v) for v in scene.sem_scores[i]]
        rows.append(row)
    stuff = sorted(scene.stuff_classes)
    header = [
        f"SC1 {scene.n_points} {scene.n_classes}",
        " ".join(["STUFF", str(len(stuff))] + [str(c) for c in stuff]),
        f"SCORES {int(with_scores)}",
    ]
    save_scene(scene, tmp_path / "s.sc1")
    assert (tmp_path / "s.sc1").read_text() == _reference_text(header, rows)

    save_offsets(offsets, tmp_path / "o.off1")
    want = _reference_text(
        [f"OFF1 {offsets.n_points}"], [[f64(v) for v in row] for row in offsets.offsets]
    )
    assert (tmp_path / "o.off1").read_text() == want

    preds = [
        InstancePrediction(point_idx=[0, 4, 7], class_id=2, score=0.75),
        InstancePrediction(point_idx=np.arange(1, scene.n_points, 3), class_id=3, score=1 / 3),
    ]
    save_predictions(preds, tmp_path / "p.pred1")
    rows = []
    for p in preds:
        rows += [[str(p.class_id), f64(p.score), str(p.size)], [str(int(i)) for i in p.point_idx]]
    assert (tmp_path / "p.pred1").read_text() == _reference_text([f"PRED1 {len(preds)}"], rows)

    export_ply(scene, preds, tmp_path / "v.ply")
    body = (tmp_path / "v.ply").read_text().split("\n")[10:-1]
    assert body == [
        " ".join([f32(v) for v in scene.coords[i]] + line.split()[3:])
        for i, line in enumerate(body)
    ]


def test_scorer_file_layout(tmp_path):
    model = ScorerModel.default(hidden=3, seed=1)
    path = tmp_path / "m.scorer"
    save_scorer(model, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "SCORER1 8 3"
    assert lines[3] == " ".join("%.17g" % v for v in model.w1[0])
    back = load_scorer(path)
    assert np.array_equal(back.w1, model.w1) and back.b2 == model.b2


@pytest.mark.parametrize("n_classes,ok", [(2147483647, True), (2147483648, False)])
def test_class_count_is_bounded_by_int32_labels(tmp_path, n_classes, ok):
    path = tmp_path / "wide.sc1"
    path.write_text(f"SC1 0 {n_classes}\nSTUFF 0\nSCORES 1\n")
    if ok:
        assert load_scene(path).sem_scores.shape == (0, n_classes)
    else:
        with pytest.raises(FormatError, match="line 1: n_points must be >= 0 and n_classes"):
            load_scene(path)


def test_scorer_errors_name_the_line_in_the_file(tmp_path):
    path = tmp_path / "bad.scorer"
    rows = VALID["scorer"].split("\n")
    for text, error in [
        ("\n".join(rows[:1] + [""] + rows[2:]), "line 2: expected 2 fields, got 0"),  # blank
        ("\n".join(rows[:2] + ["1 zz"] + rows[3:]), "line 3: value is not a number: 'zz'"),
        ("\nSCORER1 2 2", "line 1: malformed header, expected 'SCORER1 <dim> <hidden>'"),
        ("SCORER1 2 x", "line 1: hidden is not an integer: 'x'"),
        ("SCORER1 0 2", "line 1: dimensions must be >= 1"),
        ("SCORER1 2 2\n0 0.5", "line 3: expected 7 model lines, found 1"),
        (VALID["scorer"] + "\n9 9\n", "line 9: expected 7 model lines, found 9"),
        ("SCORER1 1 1\n0\n0\n1\n0\n1\n0", "line 3: normalization stdev entries must be >= 1e-8"),
        ("SCORER1 1 1\n0\n1\nnan\n0\n1\n0", "line 4: non-finite scorer model weights"),
        ("SCORER1 1 1\n0\n1\n1\n0\n1\ninf", "line 7: non-finite scorer model weights"),
    ]:
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{error}$"):
            load_scorer(path)


@pytest.mark.parametrize(
    "kind,text,error",
    [
        ("sc1", "SC1 1_0 3\nSTUFF 0\nSCORES 0\n", "line 1: n_points is not an integer: '1_0'"),
        ("sc1", "SC1 0 1_0\nSTUFF 0\nSCORES 0\n", "line 1: n_classes is not an integer: '1_0'"),
        ("sc1", "SC1 0 3\nSTUFF 1_0\nSCORES 0\n", "line 2: stuff count is not an integer: '1_0'"),
        ("off1", "OFF1 1_0\n", "line 1: n_points is not an integer: '1_0'"),
        ("pred1", "PRED1 1_0\n", "line 1: prediction count is not an integer: '1_0'"),
        ("scorer", "SCORER1 1_0 2\n", "line 1: dim is not an integer: '1_0'"),
        ("scorer", "SCORER1 2 1_0\n", "line 1: hidden is not an integer: '1_0'"),
    ],
)
def test_digit_separators_are_refused_in_headers(tmp_path, kind, text, error):
    path = tmp_path / f"h.{kind}"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{error}$"):
        LOADERS[kind](path)


_BIG = "99999999999999999999"  # beyond int64


@pytest.mark.parametrize(
    "kind,text,error",
    [
        ("sc1", f"SC1 {_BIG} 3\nSTUFF 0\nSCORES 0\n", f"line 1: n_points is out of range: '{_BIG}'"),
        ("sc1", f"SC1 0 3\nSTUFF {_BIG}\nSCORES 0\n", f"line 2: stuff count is out of range: '{_BIG}'"),
        ("sc1", f"SC1 0 3\nSTUFF 0\nSCORES {_BIG}\n", f"line 3: scores flag is out of range: '{_BIG}'"),
        ("off1", f"OFF1 {_BIG}\n", f"line 1: n_points is out of range: '{_BIG}'"),
        ("pred1", f"PRED1 {_BIG}\n", f"line 1: prediction count is out of range: '{_BIG}'"),
        ("scorer", f"SCORER1 {_BIG} 2\n", f"line 1: dim is out of range: '{_BIG}'"),
        ("scorer", f"SCORER1 2 -{_BIG}\n", f"line 1: hidden is out of range: '-{_BIG}'"),
    ],
)
def test_header_integer_beyond_int64_is_named_on_its_line(tmp_path, kind, text, error):
    path = tmp_path / f"h.{kind}"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"^{error}$"):
        LOADERS[kind](path)


@pytest.mark.parametrize(
    "flag,error",
    [
        ("+1", None),
        ("01", None),
        ("x", "line 3: scores flag is not an integer: 'x'"),
        ("1.0", "line 3: scores flag is not an integer: '1.0'"),
        ("-1", "line 3: scores flag must be 0 or 1"),
        ("1 1", "line 3: malformed header, expected 'SCORES <scores flag>'"),
    ],
)
def test_scores_flag_is_an_integer_of_0_or_1(tmp_path, flag, error):
    path = tmp_path / "f.sc1"
    path.write_text(f"SC1 1 2\nSTUFF 0\nSCORES {flag}\n0 0 0 1 2 3 1 -1 0 1\n")
    if error is None:
        assert load_scene(path).sem_scores.tolist() == [[0.0, 1.0]]
    else:
        with pytest.raises(FormatError, match=f"^{error}$"):
            load_scene(path)


# --- the C reader agrees with the per-token reference walk ---------------

_I64, _I32 = np.iinfo(np.int64), np.iinfo(np.int32)
_PLAIN = ["0", "1", "-3", "42", "+5", "07", "-0"]  # valid in every column
_EXOTIC = [
    "2.5", "1e5", "-1e-50", "1e-320", "1_0", "1.", ".5", "nan", "-nan", "Infinity", "1e400",
    "0x10", "1e39", "zz", "#1", "1\x002", "\x00", "",
] + [str(v) for info in (_I64, _I32) for v in (info.min - 1, info.min, info.max, info.max + 1)]
_SEPS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x00"]


@st.composite
def _table(draw):
    """``(lines, fields)``: field groups of every dtype, rows of vocabulary
    tokens joined by whitespace (or NUL), some rows blank or of wrong width."""
    dtypes = st.sampled_from([np.int32, np.int64, np.float32, np.float64])
    fields = []
    for k in range(draw(st.integers(1, 4))):
        dtype, count = draw(dtypes), draw(st.integers(0, 3))
        # one name for every column of the group, or one name per column
        names = draw(st.sampled_from([f"g{k}", tuple(f"g{k}.{j}" for j in range(count))]))
        fields.append((names, dtype, count))
    width = sum(count for _, _, count in fields)
    # plain tokens, with one exotic token or with all of them mixed in
    mix = draw(st.sampled_from([[], [draw(st.sampled_from(_EXOTIC))] * 3, _EXOTIC]))
    vocab = st.sampled_from(_PLAIN + mix)
    ragged = draw(st.booleans())  # some rows blank or of a wrong width
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if ragged and draw(st.integers(0, 3)) == 0:  # blank or whitespace only
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x1c \x0c"])))
            continue
        n = draw(st.sampled_from([width, width + 1, max(width - 1, 0)])) if ragged else width
        toks = [draw(vocab) for _ in range(n)]
        seps = [draw(st.sampled_from(_SEPS)) for _ in range(n + 1)]
        lines.append(seps[0] + "".join(t + s for t, s in zip(toks, seps[1:])))
    return lines, fields


def _outcome(reader, lines, lineno, fields):
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in reader(lines, lineno, fields)]
    except FormatError as err:
        return str(err)


@settings(max_examples=1000)
@given(table=_table(), lineno=st.integers(1, 10**6))
@example(table=(["1 #1"], [("g", np.int64, 1)]), lineno=1)  # no comments
@example(table=(["1", "", "2"], [("g", np.int64, 1)]), lineno=1)  # no skipped lines
@example(table=(["1_0 -nan"], [("g", np.float64, 2)]), lineno=1)
@example(table=(["2147483648"], [("g", np.int32, 1)]), lineno=1)
def test_read_rows_matches_the_reference_walk(table, lineno):
    lines, fields = table
    assert _outcome(_read_rows, lines, lineno, fields) == _outcome(
        walk_rows, lines, lineno, fields
    )


def test_writer_output_never_takes_the_walk(tmp_path, monkeypatch):
    def fault(line, lineno, fields):
        raise AssertionError(f"named a fault on line {lineno}: {line!r}")

    scene, offsets = generate_scene(GenConfig(seed=4, n_objects=3, density=300.0))
    assert scene.stuff_classes and scene.sem_scores is not None
    # an empty STUFF list is a table of no columns: one blank row
    bare = make_scene(
        scene.coords, scene.sem_labels, scene.inst_ids, n_classes=scene.n_classes,
        stuff_classes=frozenset(), sem_scores=None, colors=scene.colors,
    )
    preds = [
        InstancePrediction(point_idx=[3], class_id=2, score=1.0),
        InstancePrediction(point_idx=np.arange(0, scene.n_points, 2), class_id=3, score=1 / 3),
    ]
    model = ScorerModel.default(hidden=5, seed=2)
    save_scene(scene, tmp_path / "s.sc1")
    save_scene(bare, tmp_path / "b.sc1")
    save_offsets(offsets, tmp_path / "o.off1")
    save_predictions(preds, tmp_path / "p.pred1")
    save_scorer(model, tmp_path / "m.scorer")
    monkeypatch.setattr(formats, "_fault", fault)
    assert scenes_equal(load_scene(tmp_path / "s.sc1"), scene)
    assert scenes_equal(load_scene(tmp_path / "b.sc1"), bare)
    assert np.array_equal(load_offsets(tmp_path / "o.off1").offsets, offsets.offsets)
    back = load_predictions(tmp_path / "p.pred1")
    assert [p.point_idx.tolist() for p in back] == [p.point_idx.tolist() for p in preds]
    assert np.array_equal(load_scorer(tmp_path / "m.scorer").w1, model.w1)


def test_read_rows_bisects_to_the_fault_in_few_reader_calls(monkeypatch):
    # one fault in a large table: the C reader runs at most ceil(log2 n) + 1
    # times on fewer than 2n lines in all, and the fault namer runs once
    fields = [("a", np.int32, 1), ("b", np.float64, 2)]
    lines = [f"{k} {k / 7!r} -{k}" for k in range(40_000)]
    loadtxt, fault = formats._loadtxt, formats._fault
    read, named = [], []

    def counting_loadtxt(lines, fields, *args):
        if not named:  # the fault namer's one-token reads are not the bisection's
            read.append(len(lines))
        return loadtxt(lines, fields, *args)

    def counting_fault(line, lineno, fields):
        named.append(lineno)
        fault(line, lineno, fields)

    monkeypatch.setattr(formats, "_loadtxt", counting_loadtxt)
    monkeypatch.setattr(formats, "_fault", counting_fault)
    for at, token in [(40_000, "zz"), (20_000, "1_0"), (1, "zz")]:
        table = list(lines)
        table[at - 1] = f"{token} 1 2"
        read.clear()
        named.clear()
        with pytest.raises(FormatError, match=f"^line {at}: a is not an integer: '{token}'$"):
            _read_rows(table, 1, fields)
        assert len(read) <= 17 and sum(read) < 80_000
        assert named == [at]


def test_a_refused_body_goes_straight_to_the_bisection(tmp_path, monkeypatch):
    # the read from the file has shown that the body fails, so no reader
    # call parses the whole line list again before the halving starts
    _, offsets = generate_scene(GenConfig(seed=4, n_objects=3, density=300.0))
    path = tmp_path / "o.off1"
    save_offsets(offsets, path)
    lines = path.read_text().split("\n")
    lines[-2] = "1 2 zz"
    path.write_text("\n".join(lines))
    loadtxt, fault, read, named = formats._loadtxt, formats._fault, [], []

    def counting_loadtxt(text, fields, *args):
        if not named:  # the fault namer's one-token reads are not the bisection's
            read.append(len(text) if isinstance(text, list) else -1)
        return loadtxt(text, fields, *args)

    def counting_fault(line, lineno, fields):
        named.append(lineno)
        fault(line, lineno, fields)

    monkeypatch.setattr(formats, "_loadtxt", counting_loadtxt)
    monkeypatch.setattr(formats, "_fault", counting_fault)
    with pytest.raises(FormatError, match=f"^line {len(lines) - 1}: offset is not a number: 'zz'$"):
        load_offsets(path)
    assert read.count(-1) == 1 and max(read) <= offsets.n_points // 2


def test_one_number_parser():
    # every text format turns text into numbers through one numpy reader
    assert package_uses("loadtxt") == [("formats", "_loadtxt")]


# --- the streamed loaders on line ends, blank lines and row counts --------

HEAD = {"sc1": 3, "off1": 1, "pred1": 1, "scorer": 1}  # header lines


def _variant(kind: str, variant: str) -> bytes:
    """``VALID[kind]`` with its line ends, its row count or a body line changed."""
    text = VALID[kind]
    lines, second = text.split("\n")[:-1], HEAD[kind] + 1  # lines[second]: line 2 of the body
    if variant == "crlf":
        return text.replace("\n", "\r\n").encode()
    if variant == "lone cr":
        return text.replace("\n", "\r").encode()
    if variant == "trailing newlines":
        return (text + "\n\r\n\r\n").encode()
    if variant == "whitespace last line":
        return (text + " \t\n").encode()
    if variant == "blank body line":  # between two rows, so the row count holds
        if kind == "off1":  # a third row, so that line 2 of the body is not the last
            lines = ["OFF1 3"] + lines[1:] + ["8 9 10"]
        lines[second] = ""
    elif variant == "blank line added":
        lines.insert(second, "")
    elif variant == "row too many":
        lines.append(lines[-1])
    elif variant == "row too few":
        lines.pop()
    else:  # a non-ASCII byte on a body line
        lines[second] = "7\xe9" + lines[second]
    return ("\n".join(lines) + "\n").encode("latin-1")


# None: loads as VALID does; else the FormatError the variant must raise
VARIANTS = {
    "crlf": None,
    "lone cr": None,
    "trailing newlines": None,
    "whitespace last line": "lines, found",
    "blank body line": "^line {line}: expected [0-9]+ fields, got 0$",
    "blank line added": "lines, found",
    "row too many": "lines, found",
    "row too few": "lines, found",
    "non-ascii": "^line {line}: non-ASCII byte 0xe9$",
}


@pytest.mark.parametrize("read", [2, formats._READ])  # characters per read of the scan
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_streamed_loaders_on_line_ends_blank_lines_and_row_counts(
    tmp_path, monkeypatch, kind, variant, read
):
    monkeypatch.setattr(formats, "_READ", read)
    path = tmp_path / f"v.{kind}"
    path.write_bytes(_variant(kind, variant))
    outcome = _streamed_as_by_lines(kind, path)
    if VARIANTS[variant] is None:
        path.write_text(VALID[kind])
        assert outcome == _loaded(LOADERS[kind], path)
    else:
        assert re.search(VARIANTS[variant].format(line=HEAD[kind] + 2), outcome)


# --- the split reader: a scene's rows in two ranges, cut near its middle ----


def _rows_text(n: int, end: str = "\n", **rows: str) -> str:
    """A scene of ``n`` rows, each x its index, with ``end`` line ends and
    row ``k`` replaced by ``rows[f"r{k}"]`` (negative k from the end)."""
    body = [f"{k} 0.5 0 10 20 30 1 {k % 2}" for k in range(n)]
    for key, row in rows.items():
        body[int(key[1:])] = row
    return "".join(line + end for line in [f"SC1 {n} 3", "STUFF 1 0", "SCORES 0", *body])


# one case per fault mix: the rows that replace good ones, and where the
# fault is named (None: the scene loads)
_SPLIT_CASES = {
    "clean": ({}, None),
    "blank in the first range": ({"r0": ""}, "^line 4: expected 8 fields, got 0$"),
    "blank in the second range": ({"r-2": ""}, "^line {before_last}: expected 8 fields, got 0$"),
    "fault in the first range": ({"r1": "0 zz 0 1 2 3 1 0"}, "^line 5: y is not a number: 'zz'$"),
    "fault in the second range": ({"r-1": "0 0 zz 1 2 3 1 0"}, "^line {last}: z is not"),
    "faults in both": ({"r1": "0 zz 0 1 2 3 1 0", "r-1": "0 0 0 1 2"}, "^line 5: y is not"),
    "a Scene fault before a parse fault": (
        {"r0": "0 0 0 1 2 3 7 0", "r-1": "0 0 0 1 2 3 x 0"},
        "^line {last}: sem label is not an integer: 'x'$",
    ),
    "a Scene fault": ({"r0": "0 0 0 1 2 3 7 0"}, "^line 4: semantic label 7 out of range"),
    "non-ASCII in the second range": ({"r-1": "7\xe9 0 0 1 2 3 1 0"}, "^line {last}: non-ASCII"),
}


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_split_reader_names_the_first_fault_of_either_range(tmp_path, case, n, end, fork):
    rows, error = _SPLIT_CASES[case]
    path = tmp_path / "s.sc1"
    path.write_bytes(_rows_text(n, end, **rows).encode("latin-1"))
    outcome, first = _split(path, fork)
    assert outcome == _loaded(formats.load_scene, path)
    if error is None:
        assert isinstance(outcome, list) and 0 < first < n
    else:
        assert re.search(error.format(last=n + 3, before_last=n + 2), outcome)
        assert first is None or 0 < first < n


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("n,trail", [(0, ""), (1, ""), (2, ""), (7, ""), (4, "\n\r\n\n")])
def test_split_reader_on_row_counts_and_trailing_blank_lines(tmp_path, n, trail, fork):
    path = tmp_path / "s.sc1"
    path.write_text(_rows_text(n) + trail)
    outcome, first = _split(path, fork)
    assert outcome == _loaded(formats.load_scene, path)
    assert first is None if n < 2 else 0 < first < n


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_split_reader_at_every_cut_read_and_decoder_chunk_edge(tmp_path, monkeypatch, end):
    # padding the first row moves half the file over every character of a
    # line, its line end (a CR LF pair too) among them; a read ends there, or
    # ends a line there at one byte per read; small decoder chunks end
    # between the CR and the LF of a pair, where the decoder holds the CR
    path, opened, firsts = tmp_path / "s.sc1", formats._open, set()

    def chunked(size):
        def open_(p):
            fh = opened(p)
            fh._CHUNK_SIZE = size
            return fh
        return open_

    for pad in range(45):
        path.write_text(_rows_text(5, end, r0="0 0.5 0 10 20 30 1 0" + " " * pad), newline="")
        want = _loaded(formats.load_scene, path)
        for read, chunk in [(1, 1), (2, 8192), (formats._READ, 2), (formats._READ, 8192)]:
            monkeypatch.setattr(formats, "_READ", read)
            monkeypatch.setattr(formats, "_open", chunked(chunk))
            outcome, first = _split(path, fork=pad % 9 == 0)
            assert outcome == want and 0 < first < 5, (pad, read, chunk)
            firsts.add(first)
    assert len(firsts) > 1


@pytest.mark.parametrize(
    "kind,text,error",
    [
        (
            "sc1", "SC1 1 2000000000\nSTUFF 0\nSCORES 1\n0 0 0 1 2 3 1 -1 1\n",
            "line 4: expected 2000000008 fields, got 9",
        ),
        ("off1", "OFF1 1\n0\n", "line 2: expected 3 fields, got 1"),
        ("pred1", "PRED1 1\n1 0.5 2000000000\n1\n", "line 3: expected 2000000000 fields, got 1"),
        (
            "scorer", "SCORER1 2000000000 1\n0\n1\n0\n0\n0\n0\n",
            "line 2: expected 2000000000 fields, got 1",
        ),
    ],
    ids=["sc1", "off1", "pred1", "scorer"],
)
def test_a_row_wider_than_its_line_is_named_before_the_reader_runs(
    tmp_path, monkeypatch, kind, text, error
):
    # the reader sizes its work per column: a header of 2e9 columns must not reach it
    path = tmp_path / f"w.{kind}"
    path.write_text(text)
    loadtxt = formats._loadtxt

    def narrow_only(text, fields, *args):
        assert sum(count for _, _, count in fields) < 1000, "a table wider than its line was read"
        return loadtxt(text, fields, *args)

    monkeypatch.setattr(formats, "_loadtxt", narrow_only)
    with pytest.raises(FormatError, match=f"^{error}$"):
        LOADERS[kind](path)


# --- the file route: numpy's reader on its own handle, named by descriptor --


def _route_bodies(head: str, rows: list[str], wide: str) -> dict:
    """Files of ``head`` then ``rows`` (``wide``, a token that overflows the
    last column, replaces a row's last token), each with one departure from
    the written shape: line ends, an edit of a row in either range of a
    file read as two (rows 1 and -2), trailing empty lines or no last
    newline."""
    edits = {
        "blank": lambda row: "",
        "spaces": lambda row: " \t ",
        "vt": lambda row: row.replace(" ", "\v"),
        "ff": lambda row: row.replace(" ", "\f"),
        "fs": lambda row: row.replace(" ", "\x1c"),
        "nul": lambda row: row[:2] + "\x00" + row[2:],
        "short": lambda row: row.rsplit(" ", 1)[0],
        "long": lambda row: row + " 1",
        "overflow": lambda row: row.rsplit(" ", 1)[0] + " " + wide,
        "underscore": lambda row: "1_0 " + row.split(" ", 1)[1],
        "hex": lambda row: "0x1 " + row.split(" ", 1)[1],
    }
    text = "\n".join([head, *rows]) + "\n"
    bodies = {"crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r")}
    bodies |= {"trailing empty lines": text + "\n \n\r\n", "no last newline": text[:-1]}
    for name, edit in edits.items():
        for at in (1, len(rows) - 2):
            edited = rows[:at] + [edit(rows[at])] + rows[at + 1 :]
            bodies[f"{name} at row {at}"] = "\n".join([head, *edited]) + "\n"
    return bodies


_ROUTE_BODIES = {
    "sc1": _route_bodies(
        "SC1 8 3\nSTUFF 1 0\nSCORES 0", [f"{k} 0.5 0 10 20 30 1 {k % 2}" for k in range(8)], "2147483648"
    ),
    "off1": _route_bodies("OFF1 8", [f"0.{k} -0.25 1e-17" for k in range(8)], "1e400"),
}
_ROUTE_LOADERS = {
    "sc1": [formats.load_scene, lambda path: formats._load_scene(path, cli._beside)],
    "off1": [formats.load_offsets],
}


@pytest.mark.skipif(not os.path.isdir(formats._FD), reason="no names for open descriptors")
@pytest.mark.parametrize(
    "kind,body", [(kind, body) for kind in _ROUTE_BODIES for body in _ROUTE_BODIES[kind]]
)
def test_the_file_route_reads_as_the_line_route(tmp_path, kind, body):
    path = tmp_path / f"r.{kind}"
    path.write_bytes(_ROUTE_BODIES[kind][body].encode())
    (tmp_path / "fd").mkdir()  # names no descriptor: the line route
    for load in _ROUTE_LOADERS[kind]:
        by_file = _loaded(load, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats, "_FD", str(tmp_path / "fd"))
            assert _loaded(load, path) == by_file


@pytest.mark.skipif(not os.path.isdir(formats._FD), reason="no names for open descriptors")
def test_a_blank_line_in_the_first_range_is_refused_at_its_line(tmp_path):
    # with no blank line counted towards max_rows, numpy's reader would read
    # the first range one row into the second: it warns, and _loadtxt refuses
    path = tmp_path / "s.sc1"
    path.write_text(_rows_text(8, r1=""))
    outcome, first = _split(path)
    assert outcome == "line 5: expected 8 fields, got 0" and 1 < first < 8
    fields = [("row", np.float64, 8)]
    with formats._open(path) as fh:
        name = f"{formats._FD}/{fh.fileno()}"
        with pytest.warns(UserWarning, match="will not be counted towards `max_rows="):
            np.loadtxt(name, comments=None, skiprows=3, max_rows=first, ndmin=2)
        assert formats._loadtxt(name, fields, 3, first) is None


@pytest.mark.skipif(not os.path.isdir(formats._FD), reason="no names for open descriptors")
@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_numpy_reads_a_table_by_descriptor_never_by_an_archive_name(tmp_path, monkeypatch, suffix):
    # numpy opens a name that ends in an archive suffix through its
    # decompressor, which would refuse these plain-text files with an OSError
    names = _loadtxt_names(monkeypatch)
    for kind in ("sc1", "off1"):
        path = tmp_path / f"v.{kind}{suffix}"
        path.write_text(VALID[kind])
        names.clear()
        LOADERS[kind](path)
        tables = [name for name in names if isinstance(name, str)]
        assert tables and all(re.fullmatch(f"{formats._FD}/[0-9]+", name) for name in tables)


def test_a_descriptor_with_no_name_is_read_line_by_line(tmp_path, monkeypatch):
    # a /dev/fd that lists only some descriptors (0 to 2 on a BSD without
    # fdescfs) names none of a loader's, so the loader takes the line route
    paths = {kind: tmp_path / f"v.{kind}" for kind in ("sc1", "off1")}
    for kind, path in paths.items():
        path.write_text(VALID[kind])
    want = {kind: _loaded(LOADERS[kind], path) for kind, path in paths.items()}
    (tmp_path / "fd").mkdir()
    monkeypatch.setattr(formats, "_FD", str(tmp_path / "fd"))
    names = _loadtxt_names(monkeypatch)
    assert {kind: _loaded(LOADERS[kind], path) for kind, path in paths.items()} == want
    assert names and not any(isinstance(name, str) for name in names)


def _loadtxt_names(monkeypatch) -> list:
    """What each later call of ``np.loadtxt`` is handed, a file's name or
    an iterable of lines."""
    names, loadtxt = [], np.loadtxt

    def seen(text, *args, **kwargs):
        names.append(text)
        return loadtxt(text, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", seen)
    return names


# --- memory: loaders hold their arrays and a table, writers one block -------


@pytest.fixture(scope="module")
def saved_scene(tmp_path_factory):
    """A generated ~47k-point scene and its offsets, saved: 3 MB of .sc1 text."""
    scene, offsets = generate_scene(GenConfig(seed=1, room=(6.0, 6.0, 3.0), n_objects=16))
    path = tmp_path_factory.mktemp("mem") / "s.sc1"
    save_scene(scene, path)
    save_offsets(offsets, path.with_suffix(".off1"))
    return scene, path


def test_loads_peak_within_4_5x_their_arrays(saved_scene):
    # no whole-file text and no line list: the C reader's table, then the
    # objects' own copies and their checks
    scene, path = saved_scene
    loaded, peak = traced_peak(formats.load_scene, path)
    arrays = [loaded.coords, loaded.colors, loaded.sem_labels, loaded.inst_ids, loaded.sem_scores]
    assert scenes_equal(loaded, scene)
    assert peak <= 4.5 * sum(a.nbytes for a in arrays)
    offsets, peak = traced_peak(load_offsets, path.with_suffix(".off1"))
    assert peak <= 4.5 * offsets.offsets.nbytes


def test_save_scene_peak_below_a_quarter_of_its_bytes(saved_scene, tmp_path):
    # the writer holds one block of _CHUNK rows, not the file's text
    scene, _ = saved_scene
    path = tmp_path / "again.sc1"
    _, peak = traced_peak(save_scene, scene, path)
    assert peak < 0.25 * path.stat().st_size


# each loader's header with one count claimed as {n}, huge; the body that
# follows is drawn and tiny, so no file here holds what its header claims
_HUGE_HEADERS = {
    "points": ("sc1", "SC1 {n} 2\nSTUFF 0\nSCORES 0\n"),
    "classes": ("sc1", "SC1 1 {n}\nSTUFF 0\nSCORES 1\n"),
    "stuff ids": ("sc1", "SC1 1 2\nSTUFF {n}\nSCORES 0\n"),
    "offsets": ("off1", "OFF1 {n}\n"),
    "predictions": ("pred1", "PRED1 {n}\n"),
    "point indices": ("pred1", "PRED1 1\n1 0.5 {n}\n"),
    "dim": ("scorer", "SCORER1 {n} 1\n"),
    "hidden": ("scorer", "SCORER1 2 {n}\n"),
}


@pytest.mark.parametrize("claim", sorted(_HUGE_HEADERS))
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.one_of(st.integers(1 << 20, np.iinfo(np.int32).max), st.integers(1 << 31, 1 << 62)),
    body=st.lists(st.sampled_from(["", "0", "1 2 3", "0.5 0.5 0.5 1 1 1 1 -1"]), max_size=7),
)
def test_a_huge_header_count_over_a_tiny_body_costs_no_memory(tmp_path, claim, n, body):
    # a loader checks what its header claims against the file before it
    # sizes anything by the claim: FormatError, and a peak of about the file
    kind, header = _HUGE_HEADERS[claim]
    path = tmp_path / f"huge.{kind}"
    path.write_text(header.format(n=n) + "".join(line + "\n" for line in body))

    def refused():
        with pytest.raises(FormatError):
            LOADERS[kind](path)

    _, peak = traced_peak(refused)
    assert peak <= (1 << 20) + 16 * path.stat().st_size
