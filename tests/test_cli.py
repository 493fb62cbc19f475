import math

from distorder.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_broom_counts(tmp_path, capsys):
    out = tmp_path / "g.edges"
    rc, _o, _e = run_cli(capsys, "gen", "--family", "broom", "--t", "64",
                         "--r", "4032", "--out", str(out))
    assert rc == 0
    text = out.read_text()
    header = text.splitlines()[0].split()
    assert header[0] == "4097" and header[1] == "4096"


def test_gen_dense_counts(tmp_path, capsys):
    out = tmp_path / "d.edges"
    rc, _o, _e = run_cli(capsys, "gen", "--family", "dense", "--k", "16",
                         "--out", str(out))
    assert rc == 0
    header = out.read_text().splitlines()[0].split()
    assert int(header[0]) == 16 * 16 + 16


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "gen", "--family", "star", "--n", "50", "--seed", "7",
            "--out", str(a))
    run_cli(capsys, "gen", "--family", "star", "--n", "50", "--seed", "7",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_workset_on_path_linear_work(capsys):
    rc, out, _e = run_cli(capsys, "run", "--family", "path", "--n", "300",
                          "--heap", "workset")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[:3] == ["0", "1", "2"]
    stats = lines[-1].split()
    cmp, adds = int(stats[2]), int(stats[4])
    # every comparison on a path involves the free +inf sentinel or a
    # singleton heap, so the linear work shows up as additions only
    assert cmp == 0
    assert adds == 299


def test_run_optimal_on_path_zero_comparisons(capsys):
    rc, out, _e = run_cli(capsys, "run", "--family", "path", "--n", "200",
                          "--algo", "optimal")
    assert rc == 0
    stats = out.strip().splitlines()[-1].split()
    assert stats[1] == "comparisons" and stats[2] == "0"
    # one addition per distance: the path is one chain below the source
    assert stats[3] == "additions" and stats[4] == "199"


def test_run_binary_on_broom_pays_log_t(capsys):
    rc, out, _e = run_cli(capsys, "run", "--family", "broom", "--t", "64",
                          "--r", "2000", "--heap", "binary")
    assert rc == 0
    cmp = int(out.strip().splitlines()[-1].split()[2])
    n = 64 + 2000 + 1
    assert cmp >= n * math.log2(64) / 2  # Theta(n log t)


def test_run_undirected_optimal_is_usage_error(tmp_path, capsys):
    f = tmp_path / "u.edges"
    f.write_text("2 1 0 undirected\n0 1 1\n")
    rc, _o, err = run_cli(capsys, "run", "--in", str(f), "--algo", "optimal")
    assert rc == 1 and "directed" in err


def test_run_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_text("2 1 0 directed\n0 1 0\n")
    rc, _o, err = run_cli(capsys, "run", "--in", str(f))
    assert rc == 1 and "line 2" in err


def test_run_negative_weight_exit_code(tmp_path, capsys):
    f = tmp_path / "neg.edges"
    f.write_text("2 1 0 directed\n0 1 -3\n")
    rc, _o, err = run_cli(capsys, "run", "--in", str(f))
    assert rc == 1 and "line 2" in err and "not positive" in err


def test_non_ascii_file_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    # the line is named as parse_graph would name it, at any line ending
    for eol in (b"\n", b"\r", b"\r\n"):
        f.write_bytes(b"2 1 0 directed" + eol + b"0 1 5\xc3\xa9" + eol)
        for cmd in ("run", "audit"):
            rc, out, err = run_cli(capsys, cmd, "--in", str(f))
            assert rc == 1 and out == ""
            assert err.startswith("error: line 2:") and "0xc3" in err


def test_run_bench_and_audit_report_the_same_counts(capsys):
    base = ("--family", "random_digraph", "--n", "200", "--seed", "4")
    for heap, algo in (("workset", "dijkstra"), ("binary", "dijkstra"),
                       ("workset", "optimal")):
        rc, out, _e = run_cli(capsys, "run", *base, "--heap", heap,
                              "--algo", algo, "--audit")
        assert rc == 0
        stats, audit = out.splitlines()[-2:]
        rc, csv, _e = run_cli(capsys, "bench", *base, "--heaps", heap,
                              "--algo", algo)
        assert rc == 0
        row = csv.splitlines()[1].split(",")
        assert stats.split()[2:5:2] == row[5:7]  # comparisons, additions
        label, fields = audit.split(": ")
        assert label == ("# audit core" if algo == "optimal" else "# audit")
        fields = fields.split()
        # cost_I, energy and log_linearizations, then forward_edges
        assert [f"{float(x):.4f}" for x in fields[:3]] == row[7:10]
        assert fields[4] == row[10]
        if algo == "dijkstra":
            rc, csv, _e = run_cli(capsys, "audit", *base, "--heap", heap)
            assert rc == 0
            assert csv.splitlines()[1].split(",") == row[:-1] + ["0"]


def test_bench_csv_schema_and_determinism(tmp_path, capsys):
    out = tmp_path / "r.csv"
    args = ("bench", "--family", "star", "--n", "16,32", "--heaps",
            "workset,binary", "--seed", "3", "--out", str(out))
    rc, _o, _e = run_cli(capsys, *args)
    assert rc == 0
    first = out.read_text().splitlines()
    assert first[0].startswith("# distorder-bench v1 family,n,m,heap,algo,")
    assert len(first) == 1 + 2 * 2
    # append-only: a second invocation adds rows without a second header
    rc, _o, _e = run_cli(capsys, *args)
    second = out.read_text().splitlines()
    assert len(second) == 1 + 8 and second.count(first[0]) == 1
    # identical modulo the wall_ns column
    strip = lambda row: row.rsplit(",", 1)[0]
    assert [strip(r) for r in second[1:5]] == [strip(r) for r in second[5:9]]


def test_bench_rejects_unknown_heap(capsys):
    rc, _o, err = run_cli(capsys, "bench", "--family", "star", "--n", "8",
                          "--heaps", "splay")
    assert rc == 1


def test_audit_ok_exit_zero(capsys):
    rc, out, _e = run_cli(capsys, "audit", "--family", "fan", "--n", "20")
    assert rc == 0
    assert "fan,20" in out


def test_cli_usage_error_exit_one(capsys):
    rc, _o, _e = run_cli(capsys, "run")  # neither --in nor --family
    assert rc == 1


def test_bad_n_is_usage_error(capsys):
    # bench's comma list names the one bad size in it
    for cmd, n in (("gen", "abc"), ("run", "abc"), ("audit", "abc"),
                   ("bench", "8,abc")):
        rc, _o, err = run_cli(capsys, cmd, "--family", "star", "--n", n)
        assert rc == 1
        assert err.startswith("error: ") and "'abc'" in err


def test_gen_without_family_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "gen", "--n", "5")
    assert rc == 1 and out == ""
    assert err.strip() == "error: gen needs --family"


def test_gen_roundtrips_through_run(tmp_path, capsys):
    f = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "random_digraph", "--n", "40",
            "--seed", "5", "--out", str(f))
    rc, out, _e = run_cli(capsys, "run", "--in", str(f), "--algo", "optimal",
                          "--audit")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert sorted(map(int, lines)) == list(range(40))


def test_nonpositive_n_is_usage_error(capsys):
    # broom and dense derive their parameters from --n with an integer
    # square root, which must not see a negative size
    for fam, n in (("broom", "-5"), ("dense", "-4"), ("star", "0")):
        rc, _o, err = run_cli(capsys, "gen", "--family", fam, "--n", n)
        assert rc == 1 and err.startswith("error: ") and n in err
    rc, _o, err = run_cli(capsys, "bench", "--family", "broom", "--n", "-5")
    assert rc == 1 and err.startswith("error: ")


def test_bench_takes_no_input_file(tmp_path, capsys):
    # bench sweeps generated sizes; an --in it would ignore is refused
    f = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "star", "--n", "8", "--out", str(f))
    for extra in ((), ("--family", "star", "--n", "8")):
        rc, out, _e = run_cli(capsys, "bench", "--in", str(f), *extra)
        assert rc == 1 and out == ""
    rc, _o, err = run_cli(capsys, "bench", "--n", "8")
    assert rc == 1 and "--family" in err


def test_bench_optimal_row_names_the_pipeline_heap(capsys):
    rc, out, _e = run_cli(capsys, "bench", "--family", "star", "--n", "8",
                          "--algo", "optimal", "--heaps", "binary,pairing")
    assert rc == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 1 and rows[0].split(",")[3] == "workset"


def test_bench_without_rows_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    for extra in (("--reps", "0"), ("--heaps", ""), ("--heaps", " , "),
                  ("--n", ",")):
        rc, printed, err = run_cli(capsys, "bench", "--family", "star",
                                   "--n", "8", *extra, "--out", str(out))
        assert rc == 1 and printed == "" and err.startswith("error: ")
    assert not out.exists()
