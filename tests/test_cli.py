"""Command-line interface: formats, flows, exit codes."""

import pytest

from tilejep.cli import main


@pytest.fixture
def specs(tmp_path):
    (tmp_path / "free.txt").write_text("tiles 1\n")
    (tmp_path / "hard.txt").write_text("tiles 1\nhnot 1 1\n")
    (tmp_path / "fig.txt").write_text("tiles 2\nhnot 1 1\n")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_tiling_solve_exit_codes(specs):
    assert run("tiling", "solve", "--n", "2", specs / "hard.txt") == 1
    assert run("tiling", "solve", "--n", "1", specs / "hard.txt") == 0
    assert run("tiling", "periodic", specs / "free.txt") == 0
    assert run("tiling", "periodic", specs / "hard.txt") == 1


def test_compile_then_check(specs, capsys):
    bundle = specs / "bundle"
    assert run("compile", "--stage", "unary", specs / "free.txt", "-o", bundle) == 0
    a2 = specs / "A2.graph"
    assert run("canon", "--model", "A", "--depth", "2", specs / "free.txt", "-o", a2) == 0
    assert run("check", bundle, a2) == 0
    bad = specs / "bad.graph"
    bad.write_text("graph bad palette=11\nv v colors: origin0,grid0\n")
    assert run("check", bundle, bad) == 1


def test_jointembed_and_extract_flow(specs):
    free = specs / "free.txt"
    a = specs / "A.graph"
    b = specs / "B.graph"
    theta = specs / "theta.map"
    joint = specs / "C.graph"
    assert run("canon", "--model", "A", "--depth", "2", free, "-o", a) == 0
    assert run("canon", "--model", "B", "--depth", "2", free, "-o", b) == 0
    assert run("tiling", "periodic", free, "-o", theta) == 0
    assert run("jointembed", "--theta", theta, free, a, b, "-o", joint) == 0
    assert run("extract", "--depth", "2", free, joint) == 0


def test_experiment_exit_codes(specs, tmp_path):
    assert run("experiment", "yes", "--depth", "2", specs / "free.txt",
               "-o", tmp_path / "rep.txt") == 0
    assert (tmp_path / "rep.txt").exists()
    assert (tmp_path / "rep.txt.json").exists()
    assert run("experiment", "no", "--depth", "2", specs / "hard.txt") == 0
    # NO experiment on a YES instance: precondition failure
    assert run("experiment", "no", "--depth", "2", specs / "free.txt") == 1
    # YES experiment without any small periodic solution: indeterminate
    assert run("experiment", "yes", "--depth", "1", specs / "hard.txt") == 2


def test_experiment_with_explicit_theta(specs, tmp_path):
    theta = tmp_path / "fig.map"
    theta.write_text("periodic 3 1\n2 2 1\n")
    code = run("experiment", "yes", "--depth", "3", "--theta", theta, specs / "fig.txt")
    assert code == 0


def test_usage_errors(specs, capsys):
    assert run("nonsense") == 3
    assert run("canon", "--model", "Q", "--depth", "1", specs / "free.txt", "-o", "x") == 3
    assert run("check", specs / "missing", specs / "missing.graph") == 3
    bad_specs = ("tiles 1\nhnot 1 9\n", "tiles 1\nbogus 1\n", "tiles x\n", "tiles 1\nhnot 1\n", "hnot 1 1\n")
    for i, spec in enumerate(bad_specs):
        (specs / f"bad{i}.txt").write_text(spec)
        assert run("tiling", "solve", "--n", "2", specs / f"bad{i}.txt") == 3, spec
    (specs / "bad.graph").write_text("graph bad palette=11\nv v colors: origin0,grid0\n")
    (specs / "junk.graph").write_text("graph junk\nq 1 2\n")
    assert run("canon", "--model", "B", "--depth", "1", specs / "free.txt", "-o", specs / "B.graph") == 0
    assert run("tiling", "periodic", specs / "free.txt", "-o", specs / "theta.map") == 0
    # a non-member factor (MembershipError) and a malformed graph (FormatError)
    for factor in ("bad.graph", "junk.graph"):
        assert run("jointembed", "--theta", specs / "theta.map", specs / "free.txt",
                   specs / factor, specs / "B.graph", "-o", specs / "C.graph") == 3, factor
    # NO refutation exists for the unary stage only
    for stage in ("pure", "jhp"):
        assert run("experiment", "no", "--stage", stage, "--depth", "2", specs / "hard.txt") == 3


def test_pure_stage_bundle_round_trip(specs):
    # wheel-attachment ids must survive the text format (regression: ids
    # containing the comment character broke bundle reloads)
    bundle = specs / "pbundle"
    assert run("compile", "--stage", "pure", specs / "free.txt", "-o", bundle) == 0
    g = specs / "wA1.graph"
    assert run("canon", "--model", "A", "--depth", "1", "--stage", "pure",
               specs / "free.txt", "-o", g) == 0
    assert run("check", bundle, g) == 0


# sha256 over (file name, NUL, bytes) of every pattern file, in name order,
# as written for *three* before pattern families were built on demand
THREE_PATTERN_DIGESTS = {
    "unary": (3074, "b13b9a3d6b49a7417d710a19351160a4db5843cf5ff79962dbe064b550197d7b"),
    "pure": (175, "55e2e5c2e66a3480863b09a3b75d04f442b3d3f8abd8ba4bef8f3d86dec2283e"),
}


@pytest.mark.parametrize("stage", sorted(THREE_PATTERN_DIGESTS))
def test_compile_writes_the_same_pattern_files(tmp_path, stage):
    import hashlib

    spec = tmp_path / "three.txt"
    spec.write_text("tiles 2\nhnot 1 1\nhnot 1 2\nhnot 2 2\n")
    bundle = tmp_path / stage
    assert run("compile", "--stage", stage, spec, "-o", bundle) == 0
    files = sorted(bundle.glob("*.pat"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    assert (len(files), digest.hexdigest()) == THREE_PATTERN_DIGESTS[stage]


# Each case writes its files into the spec directory and runs one command
# that reads one malformed input; {d} is that directory.
MALFORMED = {
    "edge-line-without-target": ({"g.graph": "graph g\nv 1\ne 1\n"},
                                 ("extract", "--depth", "1", "{d}/free.txt", "{d}/g.graph")),
    "edge-to-undeclared-vertex": ({"g.graph": "graph g\nv 1\ne 1 2\n"},
                                  ("extract", "--depth", "1", "{d}/free.txt", "{d}/g.graph")),
    "map-header-without-height": ({"m.map": "patch 2\n"},
                                  ("experiment", "yes", "--depth", "1", "--theta", "{d}/m.map", "{d}/free.txt")),
    "map-cell-not-an-integer": ({"m.map": "periodic 1 1\nx\n"},
                                ("experiment", "yes", "--depth", "1", "--theta", "{d}/m.map", "{d}/free.txt")),
    "periodic-map-missing-a-row": ({"m.map": "periodic 2 2\n1 1\n"},
                                   ("experiment", "yes", "--depth", "1", "--theta", "{d}/m.map", "{d}/free.txt")),
    "truncated-manifest": ({"b/manifest.json": '{"name": "u', "g.graph": "graph g\nv 1\n"},
                           ("check", "{d}/b", "{d}/g.graph")),
    "canon-depth-zero": ({}, ("canon", "--model", "A", "--depth", "0", "{d}/free.txt", "-o", "{d}/A.graph")),
    "experiment-no-depth-zero": ({}, ("experiment", "no", "--depth", "0", "{d}/hard.txt")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_usage_error(specs, capsys, case):
    files, argv = MALFORMED[case]
    for name, text in files.items():
        (specs / name).parent.mkdir(exist_ok=True)
        (specs / name).write_text(text)
    assert run(*(a.format(d=specs) for a in argv)) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
