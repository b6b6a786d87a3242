"""Text formats for graphs, patterns, tiling specs, patches, and class bundles.

Graph format, one record per line, `#` starts a comment:

    graph <name> palette=<k>
    v <id> [colors: c1,c2,...]
    e <id> <id>

The pattern format uses header keyword ``pattern`` and adds forbidden pairs:

    f <id> <id>

Ids are whitespace-free tokens; purely numeric tokens round-trip as ints.
Tiling specs:

    tiles <t>
    hnot <l> <k>     # k may not sit directly right of l
    vnot <j> <i>     # i may not sit directly above j

Patches serialize row-major with the y=0 row first, `.` for blank cells:

    patch <w> <h>        |  periodic <px> <py>
    <row y=0>            |  <row y=0>
    ...                  |  ...

Compiled classes serialize to a bundle directory: ``manifest.json`` plus one
pattern file per constraint instance.  The manifest records each pattern
file's tag, so a loaded class parses a tag's files only when that family is
read.  Semantic rules are stored as their descriptors and rebuilt on load
by compiling the manifest's stage (``stages.STAGES``), which builds no
pattern.

Every reader raises ``FormatError`` on malformed input, naming the
offending line.  All writers go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import partial
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from .core import ColoredGraph
from .matching import ConstraintPattern
from .hereditary import HereditaryClass, PatternFamily, pattern_tag
from .stages import STAGES
from .tiling import Patch, PeriodicTiling, TilingProblem


class FormatError(ValueError):
    """Malformed input file."""


def _bad(line: str, exc: Exception) -> FormatError:
    """``exc``, raised while reading ``line``, as a FormatError naming it."""
    return exc if isinstance(exc, FormatError) else FormatError(f"bad line {line!r}: {exc}")


def _parse_id(tok: str):
    if tok.lstrip("-").isdigit():
        return int(tok)
    return tok


def _fmt_id(v) -> str:
    s = str(v)
    if any(ch.isspace() for ch in s) or "#" in s:
        raise FormatError(f"vertex id {v!r} contains whitespace or the comment character")
    return s


def atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(text: str) -> list:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


# -- graphs and patterns ----------------------------------------------------


def graph_to_text(g: ColoredGraph, palette_size: int | None = None) -> str:
    lines = [f"graph {g.name or 'g'} palette={palette_size if palette_size is not None else 0}"]
    for v in g.vertices:
        cs = sorted(g.colors(v))
        if cs:
            lines.append(f"v {_fmt_id(v)} colors: {','.join(cs)}")
        else:
            lines.append(f"v {_fmt_id(v)}")
    for u, v in g.sorted_edges():
        lines.append(f"e {_fmt_id(u)} {_fmt_id(v)}")
    return "\n".join(lines) + "\n"


def pattern_to_text(p: ConstraintPattern, palette_size: int | None = None) -> str:
    head = f"pattern {p.name or 'p'} palette={palette_size if palette_size is not None else 0}"
    body = graph_to_text(p.pattern, palette_size).split("\n", 1)[1]
    g = p.pattern
    forb = sorted(
        (tuple(g.sorted_vertices(e)) for e in p.forbidden),
        key=lambda e: (g.index(e[0]), g.index(e[1])),
    )
    lines = [head, body.rstrip("\n")] if body.strip() else [head]
    for u, v in forb:
        lines.append(f"f {_fmt_id(u)} {_fmt_id(v)}")
    if p.constraint:
        lines.append(f"constraint {p.constraint}")
    return "\n".join(lines) + "\n"


def _parse_graph_lines(lines: list, expect: str):
    if not lines:
        raise FormatError("empty file")
    head = lines[0].split()
    if head[0] != expect:
        raise FormatError(f"expected {expect!r} header, got {lines[0]!r}")
    name = head[1] if len(head) > 1 else ""
    verts: list = []
    colors: dict = {}
    edges: list = []
    forb: list = []
    constraint = ""
    for line in lines[1:]:
        try:
            toks = line.split()
            kind = toks[0]
            if kind == "v":
                if len(toks) < 2:
                    raise FormatError(f"bad vertex line: {line!r}")
                vid = _parse_id(toks[1])
                verts.append(vid)
                if len(toks) >= 3:
                    if toks[2] != "colors:" or len(toks) < 4:
                        raise FormatError(f"bad colors clause: {line!r}")
                    colors[vid] = [c for c in toks[3].split(",") if c]
            elif kind == "e":
                edges.append((_parse_id(toks[1]), _parse_id(toks[2])))
            elif kind == "f":
                forb.append((_parse_id(toks[1]), _parse_id(toks[2])))
            elif kind == "constraint":
                constraint = toks[1]
            else:
                raise FormatError(f"unknown record {kind!r} in line {line!r}")
        except IndexError as exc:
            raise _bad(line, exc) from exc
    return name, verts, edges, colors, forb, constraint


def graph_from_text(text: str) -> ColoredGraph:
    name, verts, edges, colors, forb, _ = _parse_graph_lines(_lines(text), "graph")
    if forb:
        raise FormatError("graph file contains forbidden-pair lines; use pattern_from_text")
    try:
        return ColoredGraph(verts, edges, colors, name=name)
    except ValueError as exc:  # an edge to an undeclared vertex names the edge
        raise FormatError(f"bad graph {name!r}: {exc}") from exc


def pattern_from_text(text: str) -> ConstraintPattern:
    name, verts, edges, colors, forb, constraint = _parse_graph_lines(_lines(text), "pattern")
    try:
        return ConstraintPattern(ColoredGraph(verts, edges, colors, name=name), forb, name=name,
                                 constraint=constraint)
    except ValueError as exc:
        raise FormatError(f"bad pattern {name!r}: {exc}") from exc


def write_graph(path, g: ColoredGraph, palette_size: int | None = None) -> None:
    atomic_write(path, graph_to_text(g, palette_size))


def read_graph(path) -> ColoredGraph:
    return graph_from_text(Path(path).read_text())


# -- tiling specs, patches --------------------------------------------------


def tiling_to_text(problem: TilingProblem) -> str:
    lines = [f"tiles {problem.tiles}"]
    lines += [f"hnot {a} {b}" for a, b in sorted(problem.h_forbidden)]
    lines += [f"vnot {a} {b}" for a, b in sorted(problem.v_forbidden)]
    return "\n".join(lines) + "\n"


def tiling_from_text(text: str) -> TilingProblem:
    tiles = None
    h: set = set()
    v: set = set()
    for line in _lines(text):
        try:
            toks = line.split()
            if toks[0] == "tiles":
                tiles = int(toks[1])
            elif toks[0] == "hnot":
                h.add((int(toks[1]), int(toks[2])))
            elif toks[0] == "vnot":
                v.add((int(toks[1]), int(toks[2])))
            else:
                raise FormatError(f"unknown tiling record: {line!r}")
        except (IndexError, ValueError) as exc:
            raise _bad(line, exc) from exc
    if tiles is None:
        raise FormatError("tiling spec missing 'tiles <t>' line")
    try:
        return TilingProblem(tiles, frozenset(h), frozenset(v))
    except ValueError as exc:
        raise FormatError(f"bad tiling spec: {exc}") from exc


def read_tiling(path) -> TilingProblem:
    return tiling_from_text(Path(path).read_text())


def map_to_text(m) -> str:
    if isinstance(m, PeriodicTiling):
        lines = [f"periodic {m.px} {m.py}"]
        for row in m.table:
            lines.append(" ".join(str(t) for t in row))
        return "\n".join(lines) + "\n"
    lines = [f"patch {m.width} {m.height}"]
    for row in m.rows():
        lines.append(" ".join("." if t is None else str(t) for t in row))
    return "\n".join(lines) + "\n"


def map_from_text(text: str):
    lines = _lines(text)
    if not lines:
        raise FormatError("empty tiling map")
    line = lines[0]
    try:
        head = line.split()
        if head[0] not in ("periodic", "patch"):
            raise FormatError(f"unknown map header: {line!r}")
        w, h = int(head[1]), int(head[2])
        blank = "." if head[0] == "patch" else None
        rows = []
        for line in lines[1 : 1 + h]:
            rows.append([None if t == blank else int(t) for t in line.split()])
        line = lines[0]  # the header names a wrong row count or a cell outside the window
        if head[0] == "periodic":
            return PeriodicTiling(w, h, tuple(map(tuple, rows)))
        return Patch(w, h, {(x, y): t for y, row in enumerate(rows) for x, t in enumerate(row) if t is not None})
    except (IndexError, ValueError) as exc:
        raise _bad(line, exc) from exc


def read_map(path):
    return map_from_text(Path(path).read_text())


def write_map(path, m) -> None:
    atomic_write(path, map_to_text(m))


# -- encoding scheme file ---------------------------------------------------


def scheme_to_text(scheme) -> str:
    lines = [f"k = {scheme.k}", f"dummy = {scheme.dummy}"]
    for color in scheme.palette:
        lines.append(f"wheel.{color} = {scheme.wheel_size(color)}")
    return "\n".join(lines) + "\n"


def scheme_from_text(text: str):
    from .encoding import EncodingScheme

    palette = []
    sizes = {}
    for line in _lines(text):
        key, _, val = (t.strip() for t in line.partition("="))
        if key.startswith("wheel."):
            palette.append(key[len("wheel."):])
            sizes[palette[-1]] = int(val)
    scheme = EncodingScheme(tuple(palette))
    for color in palette:
        if scheme.wheel_size(color) != sizes[color]:
            raise FormatError(f"wheel size mismatch for {color}: file says {sizes[color]}")
    return scheme


# -- class bundles ----------------------------------------------------------


def write_bundle(dirpath, cls: HereditaryClass) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    files = []
    for i, p in enumerate(cls.patterns):
        fname = f"pattern_{i:04d}.pat"
        atomic_write(d / fname, pattern_to_text(p, len(cls.palette)))
        files.append(fname)
    manifest = {
        "name": cls.name,
        "palette": list(cls.palette),
        "meta": dict(cls.meta),
        "patterns": files,
        "pattern_tags": [pattern_tag(p) for p in cls.patterns],
        "semantic_rules": [dict(r.descriptor, name=r.name, constraint=r.constraint) for r in cls.rules],
    }
    atomic_write(d / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_patterns(d: Path, files: tuple) -> list:
    return [pattern_from_text((d / f).read_text()) for f in files]


def read_bundle(dirpath) -> HereditaryClass:
    """Rebuild a compiled class from a bundle directory.

    Semantic rules are reconstructed by compiling the manifest's recorded
    stage and tiling problem through ``STAGES`` (a compile builds no
    pattern), then matched up by rule name.  Pattern files load per tag:
    each run of files with one ``pattern_tags`` entry becomes a family
    parsed only when read, so a default ``check`` parses none.  A manifest
    without tags loads every pattern file at once.  A malformed manifest or
    an unknown stage raises ``FormatError``.
    """
    d = Path(dirpath)
    path = d / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
        files = manifest["patterns"]
        tags = manifest.get("pattern_tags")
        meta = manifest.get("meta", {})
        stage = meta.get("stage")
        if stage:
            problem = TilingProblem(
                meta["tiles"],
                frozenset(map(tuple, meta.get("h", []))),
                frozenset(map(tuple, meta.get("v", []))),
            )
            wanted = {r["name"] for r in manifest.get("semantic_rules", [])}
        name, palette = manifest["name"], tuple(manifest["palette"])
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"bad manifest {path}: {exc}") from exc
    if tags is not None:
        if len(tags) != len(files):
            raise FormatError("manifest lists a different number of pattern tags and pattern files")
        patterns = tuple(
            PatternFamily(tag, partial(_read_patterns, d, tuple(f for f, _ in run)))
            for tag, run in groupby(zip(files, tags), key=itemgetter(1))
        )
    else:
        patterns = tuple(_read_patterns(d, files))
    rules: tuple = ()
    if stage:
        if stage not in STAGES:
            raise FormatError(f"unknown stage in manifest: {stage!r}")
        rules = tuple(r for r in STAGES[stage].compile(problem).rules if r.name in wanted)
    return HereditaryClass(name=name, palette=palette, patterns=patterns, rules=rules, meta=meta)


# -- two-relation structures --------------------------------------------------


def tworel_to_text(s) -> str:
    lines = [f"struct {s.name or 's'}"]
    order = {v: i for i, v in enumerate(s.vertices)}
    for v in s.vertices:
        lines.append(f"v {_fmt_id(v)}")
    for tag, rel in (("e", s.epairs), ("n", s.npairs)):
        pairs = sorted(
            (tuple(sorted(p, key=order.__getitem__)) for p in rel),
            key=lambda e: (order[e[0]], order[e[1]]),
        )
        lines += [f"{tag} {_fmt_id(u)} {_fmt_id(v)}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def tworel_from_text(text: str):
    from .jhp import TwoRelStructure

    lines = _lines(text)
    if not lines or lines[0].split()[0] != "struct":
        raise FormatError("expected 'struct' header")
    head = lines[0].split()
    name = head[1] if len(head) > 1 else ""
    verts: list = []
    eps: list = []
    nps: list = []
    for line in lines[1:]:
        toks = line.split()
        if toks[0] == "v":
            verts.append(_parse_id(toks[1]))
        elif toks[0] == "e":
            eps.append(frozenset((_parse_id(toks[1]), _parse_id(toks[2]))))
        elif toks[0] == "n":
            nps.append(frozenset((_parse_id(toks[1]), _parse_id(toks[2]))))
        else:
            raise FormatError(f"unknown record in structure file: {line!r}")
    return TwoRelStructure(tuple(verts), frozenset(eps), frozenset(nps), name=name)
