"""Command-line behavior: reports, exit codes, file outputs."""

import gc
import json
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from morsematch import (
    certify,
    dunce_hat,
    from_maximal_simplices,
    parse_complex,
    parse_matching,
    random_complex,
    rp2,
    simplex_boundary,
    wedge,
    write_complex,
)
from morsematch import cli, generators
from morsematch.cli import main
from helpers import dunce_hat_with_tetrahedron

CIRCLE = from_maximal_simplices([(0, 1), (1, 2), (0, 2)])
HEXAGON = frozenset({((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))})


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.txt"
    write_complex(simplex_boundary(3)[0], path)
    return str(path)


@pytest.fixture
def circle_file(tmp_path):
    path = tmp_path / "circle.txt"
    write_complex(CIRCLE, path)
    return str(path)


@pytest.fixture
def cyclic_file(circle_file, monkeypatch):
    # frontier is swapped for a stand-in that returns the circle's perfect
    # matching, one alternating cycle, and the real result elsewhere.
    real = cli.HEURISTICS["frontier"]

    def cyclic_on_circle(K):
        return certify(K, HEXAGON) if K == CIRCLE else real(K)

    monkeypatch.setitem(cli.HEURISTICS, "frontier", cyclic_on_circle)
    return circle_file


def run_json(capsys, argv):
    code = main(argv + ["--json", "--no-timing"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_stats_on_sphere(capsys, sphere_file):
    code, payload = run_json(capsys, ["stats", sphere_file])
    assert code == 0
    assert payload["n"] == 14
    assert payload["dim"] == 2
    assert payload["euler"] == 2
    assert payload["betti"] == [1, 0, 1]
    assert payload["connected"] is True
    assert payload["counts"] == [4, 6, 4]


def test_stats_is_byte_identical_without_timing(capsys, sphere_file):
    main(["stats", sphere_file, "--json", "--no-timing"])
    first = capsys.readouterr().out
    main(["stats", sphere_file, "--json", "--no-timing"])
    second = capsys.readouterr().out
    assert first == second


def test_stats_includes_timing_by_default(capsys, sphere_file):
    code, payload = (main(["stats", sphere_file, "--json"]), None)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "elapsed_s" in payload


def test_match_frontier_report(capsys, sphere_file):
    code, payload = run_json(capsys, ["match", sphere_file, "--algo", "frontier"])
    assert code == 0
    assert payload["algorithm"] == "frontier"
    assert payload["acyclic"] is True
    total = sum(
        (-1) ** i * c for i, c in enumerate(payload["critical_counts"])
    )
    assert total == payload["euler"] == 2
    assert payload["critical_total"] + 2 * payload["matched_pairs"] == payload["n"]


@pytest.mark.parametrize("algo", ["frontier", "coreduction", "reduction", "oracle"])
def test_match_all_algorithms_on_sphere(capsys, sphere_file, algo):
    code, payload = run_json(capsys, ["match", sphere_file, "--algo", algo])
    assert code == 0
    assert payload["acyclic"] is True
    if algo == "oracle":
        assert payload["optimal"] is True
        assert payload["critical_total"] == 2


def test_match_cyclic_result_exits_2_with_report(capsys, cyclic_file):
    code, payload = run_json(capsys, ["match", cyclic_file, "--algo", "frontier"])
    assert code == 2
    assert payload["acyclic"] is False
    assert payload["n"] == 6


def test_match_writes_matching_file(capsys, sphere_file, tmp_path):
    out = tmp_path / "m.txt"
    code, payload = run_json(
        capsys, ["match", sphere_file, "--algo", "coreduction", "--out", str(out)]
    )
    assert code == 0
    assert payload["matching_file"] == str(out)
    pairs = parse_matching(out.read_text())
    assert len(pairs) == payload["matched_pairs"]


def test_match_canonicalize_flag(capsys, sphere_file):
    code, payload = run_json(
        capsys, ["match", sphere_file, "--algo", "frontier", "--canonicalize", "1"]
    )
    assert code == 0
    assert payload["critical_counts"][0] == 1


def test_match_oracle_on_projective_plane(capsys, tmp_path):
    path = tmp_path / "rp2.txt"
    write_complex(rp2(), path)
    code, payload = run_json(capsys, ["match", str(path), "--algo", "oracle"])
    assert code == 0
    assert payload["optimal"] is True
    assert payload["critical_total"] == 3


def test_unknown_algorithm_is_a_usage_error(sphere_file):
    with pytest.raises(SystemExit) as exc:
        main(["match", sphere_file, "--algo", "simulated-annealing"])
    assert exc.value.code == 2


def test_match_oracle_budget_exhaustion_exit_code(capsys, tmp_path):
    path = tmp_path / "hat_tetra.txt"
    write_complex(dunce_hat_with_tetrahedron(), path)
    code, payload = run_json(
        capsys, ["match", str(path), "--algo", "oracle", "--budget", "2000"]
    )
    assert code == 4
    assert payload["optimal"] is False
    assert payload["acyclic"] is True
    assert payload["config"]["budget"] == 2000


def test_match_oracle_deep_search_exhausts_budget_with_report(capsys, tmp_path):
    path = tmp_path / "hat_tetra70.txt"
    write_complex(wedge(dunce_hat_with_tetrahedron(), 1, 70), path)
    code, payload = run_json(
        capsys, ["match", str(path), "--algo", "oracle", "--budget", "3000"]
    )
    assert code == 4
    assert payload["optimal"] is False
    assert payload["acyclic"] is True
    assert payload["n"] == 3921


def test_the_environment_sets_no_oracle_budget(capsys, tmp_path, monkeypatch):
    # --budget is the only source; a variable of the old name is ignored.
    path = tmp_path / "rp2.txt"
    write_complex(rp2(), path)
    monkeypatch.setenv("MORSE_ORACLE_BUDGET", "abc")
    code, payload = run_json(capsys, ["match", str(path), "--algo", "oracle"])
    assert code == 0
    assert payload["config"]["budget"] is None


@pytest.mark.parametrize("command", ["match", "bench"])
def test_negative_budget_is_rejected_at_parse_time(tmp_path, capsys, command):
    write_complex(dunce_hat(), tmp_path / "dunce.txt")
    target = str(tmp_path / "dunce.txt") if command == "match" else str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--budget", "-5"])
    assert exc.value.code == 2
    assert "--budget: must be a non-negative integer, got '-5'" in capsys.readouterr().err


@pytest.mark.parametrize("algos", ["", ",", " , "])
def test_bench_without_an_algorithm_exits_2(tmp_path, capsys, algos):
    write_complex(rp2(), tmp_path / "rp2.txt")
    assert main(["bench", str(tmp_path), "--algos", algos, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no algorithm in --algos" in captured.err


@pytest.mark.parametrize("algos", ["frontier,frontier", "coreduction, frontier ,coreduction"])
def test_bench_repeated_algorithm_exits_2(tmp_path, capsys, algos):
    write_complex(rp2(), tmp_path / "rp2.txt")
    assert main(["bench", str(tmp_path), "--algos", algos, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "named more than once in --algos" in captured.err


def test_bench_unknown_algorithm_exits_2(tmp_path, capsys):
    write_complex(rp2(), tmp_path / "rp2.txt")
    assert main(["bench", str(tmp_path), "--algos", "frontier,bogus", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown algorithm bogus" in captured.err


def test_validate_accepts_good_matching(capsys, sphere_file, tmp_path):
    out = tmp_path / "m.txt"
    main(["match", sphere_file, "--algo", "coreduction", "--out", str(out), "--no-timing"])
    capsys.readouterr()
    code, payload = run_json(capsys, ["validate", sphere_file, str(out)])
    assert code == 0
    assert payload["valid"] is True
    assert payload["problems"] == []
    assert payload["critical_total"] >= 2


def test_validate_reports_each_problem(capsys, circle_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("9 ; 0 1\n0 ; 1 2\n0 ; 0 1\n0 ; 0 2\n")
    code, payload = run_json(capsys, ["validate", circle_file, str(bad)])
    assert code == 2
    assert payload["valid"] is False
    text = "\n".join(payload["problems"])
    assert "pair 1: unknown simplex 9" in text
    assert "pair 2: not a covering pair" in text
    assert "matched twice" in text


def test_validate_reports_cycle_witness(capsys, circle_file, tmp_path):
    cyc = tmp_path / "cyc.txt"
    cyc.write_text("0 ; 0 1\n1 ; 1 2\n2 ; 0 2\n")
    code, payload = run_json(capsys, ["validate", circle_file, str(cyc)])
    assert code == 2
    assert payload["acyclic"] is False
    assert len(payload["witness_cycle"]) == 6


def test_gen_outputs_parse_back(tmp_path, capsys):
    for argv, expect in [
        (["gen", "boundary", "--n", "3"], simplex_boundary(3)[0]),
        (["gen", "rp2"], rp2()),
        (["gen", "dunce"], dunce_hat()),
    ]:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert parse_complex(out) == expect


@pytest.mark.parametrize("name", ["boundary", "full"])
def test_gen_refuses_a_simplex_over_the_cap(capsys, monkeypatch, name):
    def build(*args):
        raise AssertionError("built past the cap")

    monkeypatch.setattr(generators, "combinations", build)
    monkeypatch.setattr(generators, "from_maximal_simplices", build)
    assert main(["gen", name, "--n", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "40-simplex would be over the cap of 65536 simplices" in captured.err


def test_gen_wedge_refuses_past_the_cap(capsys, monkeypatch):
    # 48 * 4000 + 1 = 192 001 simplices; only the 17-facet base is built.
    close = generators.from_maximal_simplices

    def build(facets):
        facets = list(facets)
        assert len(facets) < 100, "built past the cap"
        return close(facets)

    monkeypatch.setattr(generators, "from_maximal_simplices", build)
    assert main(["gen", "wedge", "--base", "dunce", "--copies", "4000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wedge of 4000 copies would be over the cap of 65536 simplices" in captured.err


def test_gen_writes_file_with_header(tmp_path):
    out = tmp_path / "w.txt"
    code = main(["gen", "wedge", "--base", "dunce", "--copies", "3", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# morse gen wedge")
    assert parse_complex(text).n == 145


# Header lines as the generator catalogue has always written them: options a
# generator ignores, such as --seed or --connected on rp2 and dunce, are left out.
GEN_HEADERS = {
    "boundary": ("boundary --n 4", "boundary --n 4"),
    "full": ("full --n 2 --seed 7", "full --n 2"),
    "rp2": ("rp2 --seed 3", "rp2"),
    "dunce": ("dunce --connected", "dunce"),
    "wedge": ("wedge --base rp2 --copies 3 --connected", "wedge --base rp2 --copies 3"),
    "random-connected": (
        "random --seed 5 --dim 3 --vertices 40 --facets 60 --connected",
        "random --seed 5 --dim 3 --vertices 40 --facets 60 --connected",
    ),
    "random": ("random --seed 2 --facets 12", "random --seed 2 --dim 2 --vertices 10 --facets 12"),
}


@pytest.mark.parametrize("args, header", GEN_HEADERS.values(), ids=GEN_HEADERS)
def test_gen_header_replays_to_the_same_bytes(capsys, args, header):
    assert main(["gen", *args.split()]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == f"# morse gen {header}"
    assert main(["gen", *header.split()]) == 0
    assert capsys.readouterr().out == first


def test_gen_random_is_reproducible(capsys):
    main(["gen", "random", "--seed", "5"])
    first = capsys.readouterr().out
    main(["gen", "random", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_bench_over_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_complex(simplex_boundary(2)[0], corpus / "a.txt")
    write_complex(simplex_boundary(3)[0], corpus / "b.txt")
    write_complex(rp2(), corpus / "c.txt")
    argv = ["bench", str(corpus), "--json", "--no-timing"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    # a child through the process entry, which freezes its start-up heap,
    # prints the same bytes as main called in-process
    child = subprocess.run([sys.executable, "-m", "morsematch.cli", *argv], capture_output=True)
    assert (child.returncode, child.stdout) == (code, out.encode())
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 9
    for row in rows:
        total = sum((-1) ** i * c for i, c in enumerate(row["critical_counts"]))
        assert total == row["euler"]
    assert set(payload["aggregates"]) == {
        "frontier",
        "coreduction",
        "reduction",
    }


def test_bench_cyclic_result_exits_2_over_budget_exhaustion(tmp_path, capsys, cyclic_file):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(cyclic_file, corpus / "circle.txt")
    write_complex(dunce_hat_with_tetrahedron(), corpus / "hat_tetra.txt")
    code, payload = run_json(
        capsys, ["bench", str(corpus), "--algos", "frontier,oracle", "--budget", "50"]
    )
    assert code == 2
    rows = {(r["complex"], r["algorithm"]): r for r in payload["rows"]}
    assert rows[("circle.txt", "frontier")]["acyclic"] is False
    assert rows[("hat_tetra.txt", "oracle")]["optimal"] is False


def test_bench_human_output_is_a_table(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_complex(rp2(), corpus / "only.txt")
    code = main(["bench", str(corpus), "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "algorithm" in out and "frontier" in out


def _corpus(root, name, K, copies):
    corpus = root / name
    corpus.mkdir()
    for i in range(copies):
        write_complex(K, corpus / f"{i}.txt")
    return str(corpus)


@pytest.mark.parametrize("algos", ["coreduction,reduction", "frontier"])
def test_bench_holds_one_complex_at_a_time(tmp_path, capsys, algos):
    # Peak traced memory over three copies of one file stays near the peak
    # over one copy: each file's complex, caches and matchings are released
    # before the next file is parsed.  Two resident complexes read 1.8-2.3x.
    # The rest above 1x is freed tuples and lists that CPython keeps on its
    # free lists and tracemalloc still counts: a few hundred KB however
    # large the file, which read over 1.5x beside a 1817-simplex complex
    # depending on the tests run before, so the complex is larger.
    K = random_complex(1, 3, 120, 1600, connected=True)
    assert K.n == 7006
    one = _corpus(tmp_path, "one", K, 1)
    three = _corpus(tmp_path, "three", K, 3)
    argv = ["--algos", algos, "--json", "--no-timing"]
    assert main(["bench", one, *argv]) == 0  # untraced warm-up

    def peak(corpus):
        tracemalloc.start()
        try:
            assert main(["bench", corpus, *argv]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single, triple = peak(one), peak(three)
    capsys.readouterr()
    assert triple <= 1.5 * single, (single, triple)


def test_bench_carries_no_state_between_files(tmp_path, capsys):
    # a and c hold the same complex with b between them: their rows must
    # match each other and each row must match a bench over its file alone.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, K in (("a.txt", dunce_hat()), ("b.txt", rp2()), ("c.txt", dunce_hat())):
        write_complex(K, corpus / name)
    argv = ["--algos", "frontier,coreduction,reduction,oracle", "--budget", "2000"]
    code, payload = run_json(capsys, ["bench", str(corpus), *argv])
    assert code == 0
    rows = {}
    for row in payload["rows"]:
        rows.setdefault(row["complex"], []).append(row)
    assert len(rows["a.txt"]) == 4
    assert [{**r, "complex": "c.txt"} for r in rows["a.txt"]] == rows["c.txt"]
    for name, file_rows in rows.items():
        alone = tmp_path / f"alone-{name}"
        alone.mkdir()
        shutil.copy(corpus / name, alone / name)
        assert run_json(capsys, ["bench", str(alone), *argv])[1]["rows"] == file_rows


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_a_bench_row_decodes_no_simplex_tuple(tmp_path, monkeypatch, algo):
    # A complex keeps its order as packed keys until its simplices are
    # read, and no bench row reads them: not the shared facts, the
    # matching, its certificate or report, nor frontier's components.
    write_complex(wedge(dunce_hat(), 1, 3), tmp_path / "w.txt")
    read = []
    real = cli.read_complex

    def kept(path):
        read.append(real(path))
        return read[-1]

    monkeypatch.setattr(cli, "read_complex", kept)
    (row,) = cli._bench_file(str(tmp_path), "w.txt", [algo], 50)
    assert row["acyclic"] and row["n"] == read[0].n
    assert read[0]._simplices is None


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 1\n")
    assert main(["stats", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "repeated vertex" in err


@pytest.mark.parametrize("command", ["stats", "match", "bench"])
def test_an_oversized_complex_file_exits_2_in_little_memory(tmp_path, capsys, command):
    # One line of 30 vertex ids closes to 2**30 - 1 faces: refused before any is made.
    (tmp_path / "big.txt").write_text(" ".join(map(str, range(30))) + "\n")
    target = tmp_path if command == "bench" else tmp_path / "big.txt"
    tracemalloc.start()
    try:
        assert main([command, str(target)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "big.txt: closure would be over the cap of 1048576 simplices" in capsys.readouterr().err
    assert peak < 4 << 20


def test_stats_negative_vertex_id_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n-1 3\n")
    assert main(["stats", str(bad)]) == 3
    assert "line 2: bad vertex id '-1'" in capsys.readouterr().err


def test_validate_negative_vertex_id_is_a_parse_error(tmp_path, capsys, circle_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 ; 0 1\n-1 ; 0 1\n")
    assert main(["validate", circle_file, str(bad)]) == 3
    assert "line 2: bad vertex id '-1'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{bad}"],
        ["match", "{bad}"],
        ["bench", "{corpus}"],
        ["validate", "{bad}", "{circle}"],
        ["validate", "{circle}", "{bad}"],
    ],
)
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, circle_file, argv):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / "bad.txt"
    bad.write_bytes(b"0 1\n\xff\xfe 2\n")
    paths = {"bad": bad, "corpus": corpus, "circle": circle_file}
    assert main([arg.format(**paths) for arg in argv]) == 3
    assert f"{bad}: not UTF-8 text (invalid start byte at byte 4)" in capsys.readouterr().err


def test_bench_parse_error_names_the_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text("0 1\n")
    (corpus / "b.txt").write_text("0 0 1\n")
    assert main(["bench", str(corpus)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {corpus / 'b.txt'}: line 1: repeated vertex in '0 0 1'\n"


def test_validate_parse_error_names_the_matching_file(tmp_path, capsys, circle_file):
    matching = tmp_path / "m.txt"
    matching.write_text("0 ; 0 1\n-1 ; 0 1\n")
    assert main(["validate", circle_file, str(matching)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {matching}: line 2: bad vertex id '-1'\n"


def test_missing_file_exit_code(capsys):
    assert main(["stats", "/nonexistent/nowhere.txt"]) == 3


@pytest.mark.parametrize("argv", [["gen", "dunce"], ["match", "{sphere}"], ["gen", "wedge"]])
def test_unwritable_out_exits_3(tmp_path, capsys, sphere_file, argv, monkeypatch):
    # --out is opened before the search or the build, neither of which runs
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was opened")

    monkeypatch.setattr(cli, "_run_algo", never)
    monkeypatch.setattr(cli, "wedge", never)
    out = tmp_path / "missing" / "out.txt"
    assert main([arg.format(sphere=sphere_file) for arg in argv] + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.parent.exists()


def test_a_failed_run_leaves_an_existing_out_file_intact(tmp_path, capsys):
    # the oracle refuses more than 40 simplices without --budget, after
    # --out is open; a later run that succeeds replaces the whole file
    path = tmp_path / "dunce.txt"
    write_complex(dunce_hat(), path)
    out = tmp_path / "m.txt"
    before = b"0 1\n0\n" * 1000
    out.write_bytes(before)
    argv = ["match", str(path), "--algo", "oracle", "--out", str(out)]
    assert main(argv) == 2
    assert "over the no-budget limit" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert main(argv + ["--budget", "100", "--json"]) in (0, 4)
    mm = parse_matching(out.read_text())
    assert len(mm) == json.loads(capsys.readouterr().out)["matched_pairs"]


def test_validation_error_exit_code(capsys, sphere_file):
    # vertex 99 is not in the complex, so canonicalization must fail
    code = main(["match", sphere_file, "--canonicalize", "99"])
    assert code == 2
    assert "unknown simplex" in capsys.readouterr().err


def test_canonicalize_on_a_disconnected_complex_exits_2(tmp_path, capsys):
    path = tmp_path / "two.txt"
    path.write_text("0 1\n2 3\n")
    assert main(["match", str(path), "--canonicalize", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: connected complex required\n"


def test_empty_corpus_exit_code(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    assert main(["bench", str(corpus)]) == 3


def test_console_script_is_installed():
    # The child enters through cli.run, as the installed script does.
    proc = subprocess.run(
        [sys.executable, "-m", "morsematch.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "morse" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "morsematch.cli", "match", "x.txt", "--algo", "annealing"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    (["stats", "{sphere}"], 0),
    (["stats", "missing.txt"], 3),
    (["match", "{sphere}", "--algo", "annealing"], 2),
    (["--help"], 0),
])
def test_run_freezes_once_before_main_and_returns_its_code(
    capsys, monkeypatch, sphere_file, argv, code
):
    # gc.freeze is stubbed, so the test process itself is never frozen.
    # A usage error or --help leaves main by SystemExit, as from the shell.
    calls = []
    real_main = cli.main
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or real_main())
    monkeypatch.setattr(sys, "argv", ["morse", *(a.format(sphere=sphere_file) for a in argv)])
    try:
        got = cli.run()
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert calls == ["freeze", "main"]


@pytest.mark.parametrize("command", ["stats", "match", "validate", "gen", "bench"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, sphere_file, command):
    before = gc.get_freeze_count(), gc.isenabled()
    matching = tmp_path / "out" / "m.txt"
    matching.parent.mkdir()
    assert main(["match", sphere_file, "--out", str(matching)]) == 0
    argv = {
        "stats": ["stats", sphere_file],
        "match": ["match", sphere_file, "--algo", "oracle"],
        "validate": ["validate", sphere_file, str(matching)],
        "gen": ["gen", "dunce"],
        "bench": ["bench", str(tmp_path), "--algos", "frontier,oracle"],
    }[command]
    assert main(argv) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # The difference of sys.modules before and after the import, so a site
    # hook that loads either module already cannot fail the test.
    code = (
        "import sys; before = set(sys.modules); import morsematch.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "morsematch.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_match_stdout_matching(capsys, sphere_file):
    code = main(
        ["match", sphere_file, "--algo", "coreduction", "--out", "-", "--no-timing"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert " ; " in out


def test_match_stdout_matching_sends_the_report_to_stderr(capsys, tmp_path):
    path = tmp_path / "d.txt"
    K = dunce_hat()
    write_complex(K, path)
    code = main(
        ["match", str(path), "--algo", "coreduction", "--out", "-", "--json", "--no-timing"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert certify(K, parse_matching(captured.out)).acyclic
    report = json.loads(captured.err)
    assert report["acyclic"] is True
    assert report["matched_pairs"] == len(parse_matching(captured.out))
