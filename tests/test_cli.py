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


def test_gen_roundtrips_through_run(tmp_path, capsys):
    f = tmp_path / "g.edges"
    run_cli(capsys, "gen", "--family", "random_digraph", "--n", "40",
            "--seed", "5", "--out", str(f))
    rc, out, _e = run_cli(capsys, "run", "--in", str(f), "--algo", "optimal",
                          "--audit")
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert sorted(map(int, lines)) == list(range(40))
