"""Exit codes, output schemas and determinism of the command-line front end."""

import json

import pytest

from maxminpoly import cli, core, factor, series


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_classify_paper_example(capsys):
    rep = run_json(capsys, "classify", "2:0,1,1,0,1")
    assert rep["class"] == "irreducible"
    assert rep["prime"] == "not-candidate"
    assert rep["version"]


def test_divide_paper_example(capsys):
    code, out = run(capsys, "divide", "2:0,1,1,0,1", "2:0,1", "--format", "text")
    assert code == 0 and out.strip() == "2:1,1,0,1"


def test_divide_json_reports_divisibility(capsys):
    rep = run_json(capsys, "divide", "2:1,0,1", "2:1,1")
    assert rep["divides"] is False and rep["quotient"] is None


def test_sumset(capsys):
    code, out = run(capsys, "sumset", "0,1", "0,2", "--format", "text")
    assert code == 0 and out.strip() == "0,1,2,3"


def test_decompose_set(capsys):
    rep = run_json(capsys, "decompose-set", "0,1,2,3")
    assert rep["class"] == "reducible"
    a, b = rep["summands"]
    from maxminpoly.core import sumset

    assert sumset(a, b) == (0, 1, 2, 3)
    rep = run_json(capsys, "decompose-set", "1,2,4")
    assert rep["class"] == "irreducible"


@pytest.mark.parametrize("poly", ("2:1,0,1", "2:1,1,1", "3:0,1,2", "3:1,1", "10:9,3,0,7,1"))
@pytest.mark.parametrize("command", (["classify"], ["factor"], ["factor", "--all"]))
def test_classify_and_factor_search_once(poly, command, monkeypatch, capsys):
    calls = []
    search = factor._classify_generic

    def counted(b, h):
        calls.append(h)
        return search(b, h)

    monkeypatch.setattr(factor, "_classify_generic", counted)
    rep = run_json(capsys, *command, poly)
    assert len(calls) == 1
    monkeypatch.setattr(factor, "_classify_generic", search)
    p = core.parse_poly(poly)
    assert (rep["class"], rep["prime"]) == (factor.classify_irreducible(p).kind, factor.classify_prime(p).kind)


def test_factor_all(capsys):
    rep = run_json(capsys, "factor", "2:1,1,1,1", "--all")
    assert rep["class"] == "reducible"
    assert ["2:1,1", "2:1,0,1"] in rep["factorizations"]


def test_census_csv_schema(capsys):
    code, out = run(capsys, "census", "--b", "2", "--n", "8", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "b,n,space,total,monomials,irreducible,reducible,prime_candidates,primes"
    assert row == "2,8,all-vectors,255,8,152,95,128,78"


def test_census_threads_matches_serial(capsys):
    serial = run_json(capsys, "census", "--b", "2", "--n", "10")
    threaded = run_json(capsys, "census", "--b", "2", "--n", "10", "--threads", "2")
    assert serial["record"] == threaded["record"]


def test_census_resume(tmp_path, capsys):
    path = str(tmp_path / "ck.json")
    first = run_json(capsys, "census", "--b", "2", "--n", "9", "--resume", path)
    second = run_json(capsys, "census", "--b", "2", "--n", "9", "--resume", path)
    assert first["record"] == second["record"]


@pytest.mark.parametrize(
    "argv",
    (
        ["census", "--b", "2", "--n", "0"],
        ["census", "--b", "2", "--n", "0", "--threads", "2"],
        ["census", "--b", "2", "--n", "0", "--resume", "ck.json"],
        ["partition", "--b", "2", "--n", "0", "--d", "2", "--v", "2"],
        ["close-pairs", "--n", "3", "--k", "1", "--d", "-1"],
        ["factor", "2:1,1,1,1", "--all", "--max-results", "0"],
        ["factor", "2:1,1,1,1", "--all", "--max-results", "-2"],
        ["hoeffding", "--b", "2", "--n", "0", "--i", "1", "--eps", "0.1", "--trials", "5", "--seed", "1"],
        ["bounds", "--b", "2", "--n", "0", "--d", "1", "--v", "1"],
        ["density", "--b", "2", "--n", "0", "--trials", "5", "--seed", "1"],
    ),
)
def test_bad_argument_is_one_line_domain_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("ValueError: ") and len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "ck.json").exists()


def test_census_resume_rejects_threads(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--b", "2", "--n", "9", "--resume", str(tmp_path / "ck.json"), "--threads", "2"])
    assert exc.value.code == 2


def test_density_exhaustive_rejects_threads(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--b", "2", "--n", "4", "--trials", "8", "--seed", "1", "--exhaustive", "--threads", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.strip().splitlines()[-1].endswith("--exhaustive runs one thread; drop --threads")
    assert cli.main(["density", "--b", "2", "--n", "4", "--trials", "8", "--seed", "1", "--exhaustive", "--threads", "1"]) == 0


@pytest.mark.parametrize("command", ("census", "density"))
@pytest.mark.parametrize("threads", ("0", "-3"))
def test_threads_below_one_is_usage_error(command, threads, capsys):
    argv = [command, "--b", "2", "--n", "4", "--threads", threads]
    if command == "density":
        argv += ["--trials", "8", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.strip().splitlines()[-1].endswith(f"--threads must be >= 1, got {threads}")


def test_partition(capsys):
    rep = run_json(capsys, "partition", "--b", "2", "--n", "6", "--d", "2", "--v", "2")
    assert sum(rep["sizes"]) >= rep["sigma"]
    assert len(rep["explicit_bounds"]) == 7


def test_close_pairs(capsys):
    rep = run_json(capsys, "close-pairs", "--n", "8", "--k", "3", "--d", "2")
    assert rep["holds"] is True


def test_density_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--b", "2", "--n", "8", "--trials", "100"])
    assert exc.value.code == 2


def test_density_deterministic(capsys):
    args = ["density", "--b", "2", "--n", "12", "--trials", "500", "--seed", "5"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    rep = json.loads(out1)
    assert rep["generator"] == "numpy.PCG64" and rep["seed"] == 5


def test_hoeffding(capsys):
    rep = run_json(
        capsys,
        "hoeffding", "--b", "2", "--n", "100", "--i", "1", "--eps", "0.2",
        "--trials", "500", "--seed", "3",
    )
    assert rep["report"]["empirical_tail"] <= rep["report"]["hoeffding_bound"] + 0.05


def test_bounds_default_schedule(capsys):
    rep = run_json(capsys, "bounds", "--b", "2", "--n", "100", "--schedule-default")
    assert rep["terms"][2] == pytest.approx(0.01, rel=1e-9)


def test_bounds_needs_params(capsys):
    code, _ = run(capsys, "bounds", "--b", "2", "--n", "100")
    assert code == 1


def test_t2_table(capsys):
    code, out = run(capsys, "t2", "--b", "2", "--nmax", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lhs,rhs,holds"
    assert len(lines) == 13 and all(line.endswith("True") for line in lines[6:])


def test_series_scan(tmp_path, capsys):
    stream = series.random_stream(2, 300, seed=12)
    path = tmp_path / "s.txt"
    series.write_stream(path, stream)
    rep = run_json(capsys, "series-scan", "--file", str(path), "--pattern", "0,1")
    assert rep["count"] >= 1
    rep = run_json(capsys, "series-scan", "--file", str(path), "--t1", "2")
    assert "forbidden_occurrences" in rep
    rep = run_json(capsys, "series-scan", "--file", str(path), "--z-from", "2:1,1,1,1")
    assert rep["k"] == 4 and rep["report"]["empirical"] <= 1.0


def test_missing_file_exit_code(tmp_path, capsys):
    code = cli.main(["series-scan", "--file", str(tmp_path / "missing.txt"), "--pattern", "0,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("FileNotFoundError: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("body", ("3 3\n0 3 1\n", "3 3\n0 x 1\n", "3 4\n0 1 2\n"))
def test_series_scan_malformed_file_is_one_line_error(tmp_path, capsys, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    code = cli.main(["series-scan", "--file", str(path), "--pattern", "0,1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("ValueError: ") and len(captured.err.strip().splitlines()) == 1


def test_domain_error_exit_code(capsys):
    code = cli.main(["classify", "2:1,0"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--b", "2"])
    assert exc.value.code == 2


def test_lenient_flag(capsys):
    rep = run_json(capsys, "classify", "2:1,1,0", "--lenient")
    assert rep["input"] == "2:1,1"
