"""Round trips for every documented text format."""

import pytest

from tilejep.core import ColoredGraph
from tilejep.encoding import EncodingScheme
from tilejep.matching import ConstraintPattern
from tilejep.textio import (
    FormatError,
    graph_from_text,
    graph_to_text,
    map_from_text,
    map_to_text,
    pattern_from_text,
    pattern_to_text,
    read_bundle,
    scheme_from_text,
    scheme_to_text,
    tiling_from_text,
    tiling_to_text,
    write_bundle,
)
from tilejep.tiling import Patch, PeriodicTiling, TilingProblem
from tilejep.unary import compile_unary_class


def test_graph_round_trip_exact():
    g = ColoredGraph(
        ["p0", 3, "g0_0"],
        [("p0", 3), (3, "g0_0")],
        {"p0": {"origin0"}, "g0_0": {"grid0", "tile"}},
        name="demo",
    )
    g2 = graph_from_text(graph_to_text(g, palette_size=11))
    assert g2 == g
    assert g2.name == "demo"
    assert g2.vertices == g.vertices  # declaration order preserved


def test_numeric_ids_round_trip_as_ints():
    g = ColoredGraph([0, 1], [(0, 1)])
    g2 = graph_from_text(graph_to_text(g))
    assert g2.vertices == (0, 1)


def test_pattern_round_trip():
    p = ConstraintPattern(
        ColoredGraph(["a", "b", "c"], [("a", "b")], {"a": {"grid0"}}),
        forbidden=[("a", "c")],
        name="pat",
        constraint="c8",
    )
    p2 = pattern_from_text(pattern_to_text(p, 11))
    assert p2.pattern == p.pattern
    assert p2.forbidden == p.forbidden
    assert p2.constraint == "c8"


def test_exact_vertices_are_written_as_their_f_lines():
    g = ColoredGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c")], {"a": {"grid0"}})
    p = ConstraintPattern(g, [("d", "b")], name="pat", constraint="c8", exact=["c"])
    twin = ConstraintPattern(g, p.forbidden, name="pat", constraint="c8")
    assert pattern_to_text(p, 11) == pattern_to_text(twin, 11)
    assert pattern_from_text(pattern_to_text(p, 11)).forbidden == p.forbidden


def test_writing_the_pure_bundle_never_expands_exact_vertices(tmp_path, monkeypatch):
    # every wedged pattern of *three* goes to its f lines without building
    # its forbidden set (419,902 pairs over the bundle)
    from tilejep.encoding import compile_pure_class

    def refuse(self):
        raise AssertionError(f"{self.name}: exact vertices expanded")

    monkeypatch.setattr(ConstraintPattern, "_expand_exact", refuse)
    cls = compile_pure_class(TilingProblem(2, h_forbidden={(1, 1), (1, 2), (2, 2)}))
    write_bundle(tmp_path, cls)
    assert len(list(tmp_path.glob("*.pat"))) == 175
    assert sum(bool(p.exact) for p in cls.patterns) > 0


def test_graph_text_rejects_pattern_lines():
    text = "graph g palette=0\nv a\nv b\nf a b\n"
    with pytest.raises(FormatError):
        graph_from_text(text)


def test_tiling_round_trip():
    t = TilingProblem(3, h_forbidden={(1, 2), (3, 3)}, v_forbidden={(2, 1)})
    t2 = tiling_from_text(tiling_to_text(t))
    assert t2 == t


def test_map_round_trips():
    p = Patch(3, 2, {(0, 0): 1, (2, 0): 2, (1, 1): 3})
    p2 = map_from_text(map_to_text(p))
    assert p2 == p
    m = PeriodicTiling(3, 1, ((2, 2, 1),))
    m2 = map_from_text(map_to_text(m))
    assert m2 == m


def test_comments_and_blank_lines_ignored():
    text = "# a comment\ntiles 2\n\nhnot 1 1  # inline\n"
    t = tiling_from_text(text)
    assert t.tiles == 2 and (1, 1) in t.h_forbidden


def test_scheme_round_trip():
    s = EncodingScheme(("red", "green", "dummy"))
    s2 = scheme_from_text(scheme_to_text(s))
    assert s2.palette == s.palette
    assert s2.wheel_size("green") == s.wheel_size("green") == 9


def test_bundle_round_trip(tmp_path):
    t = TilingProblem(1, h_forbidden={(1, 1)})
    cls = compile_unary_class(t)
    write_bundle(tmp_path / "bundle", cls)
    cls2 = read_bundle(tmp_path / "bundle")
    assert cls2.name == cls.name
    assert len(cls2.patterns) == len(cls.patterns)
    assert {r.name for r in cls2.rules} == {r.name for r in cls.rules}
    # a loaded class produces identical verdicts
    from tilejep.unary import canonical_A

    a = canonical_A(2, t)
    assert cls2.check(a).status == cls.check(a).status == "pass"


def test_tworel_round_trip():
    from tilejep.jhp import TwoRelStructure
    from tilejep.textio import tworel_from_text, tworel_to_text

    s = TwoRelStructure((0, 1, 2), [(0, 1)], [(0, 2), (1, 2)], name="valid3")
    s2 = tworel_from_text(tworel_to_text(s))
    assert s2 == s and s2.is_valid()


def _counting(monkeypatch):
    from tilejep import textio

    parsed = []
    plain = textio.pattern_from_text

    def count(text):
        parsed.append(text)
        return plain(text)

    monkeypatch.setattr(textio, "pattern_from_text", count)
    return parsed


@pytest.mark.parametrize("stage", ["unary", "pure"])
def test_check_on_a_fresh_bundle_parses_no_pattern_file(tmp_path, monkeypatch, stage):
    from tilejep.encoding import compile_pure_class, wedge
    from tilejep.tiling import TilingProblem
    from tilejep.unary import canonical_A, compile_unary_class, stage_palette

    t = TilingProblem(1, h_forbidden={(1, 1)})
    cls = compile_unary_class(t) if stage == "unary" else compile_pure_class(t)
    write_bundle(tmp_path / "bundle", cls)
    parsed = _counting(monkeypatch)
    loaded = read_bundle(tmp_path / "bundle")
    a = canonical_A(2, t)
    if stage == "pure":
        a = wedge(a, EncodingScheme(stage_palette("pure")))
    assert loaded.check(a).ok and not parsed
    # reading the families parses each file once, in the written order
    assert [pattern_to_text(p) for p in loaded.patterns] == [pattern_to_text(p) for p in cls.patterns]
    assert len(parsed) == len(cls.patterns)


def test_manifest_without_tags_still_reads(tmp_path, monkeypatch):
    import json

    from tilejep.tiling import TilingProblem
    from tilejep.unary import canonical_A, compile_unary_class

    t = TilingProblem(1, h_forbidden={(1, 1)})
    cls = compile_unary_class(t)
    write_bundle(tmp_path / "bundle", cls)
    manifest = tmp_path / "bundle" / "manifest.json"
    data = json.loads(manifest.read_text())
    del data["pattern_tags"]
    manifest.write_text(json.dumps(data))
    parsed = _counting(monkeypatch)
    loaded = read_bundle(tmp_path / "bundle")
    assert len(parsed) == len(cls.patterns)  # every file, at once
    assert [pattern_to_text(p) for p in loaded.patterns] == [pattern_to_text(p) for p in cls.patterns]
    assert loaded.check(canonical_A(2, t)).ok
    data["pattern_tags"] = ["c1"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(FormatError):
        read_bundle(tmp_path / "bundle")
