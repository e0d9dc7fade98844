"""Exit codes, output schemas and determinism of the command-line front end."""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from maxminpoly import __version__, census, cli, core, factor, series
from test_census import _per_vector_record
from test_factor import long_cofactor_product

SRC = Path(__file__).resolve().parent.parent / "src"


def _src_env():
    """The environment of a fresh interpreter that imports the package from SRC."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


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


def test_factor_all_lists_a_long_cofactor(capsys):
    # a 1,503-digit product whose cofactors are 1,502 digits long
    g, h = long_cofactor_product(2, 1500)
    rep = run_json(capsys, "factor", core.format_poly(h), "--all", "--max-results", "2")
    assert rep["class"] == "reducible" and len(rep["factorizations"]) == 2
    for a, c in rep["factorizations"]:
        assert core.mul(core.parse_poly(a), core.parse_poly(c)) == h


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
        ["partition", "--b", "2", "--n", "4", "--d", "inf", "--v", "2"],
        ["partition", "--b", "2", "--n", "4", "--d", "2", "--v", "nan"],
        ["bounds", "--b", "2", "--n", "4", "--d", "1", "--v", "inf"],
        ["bounds", "--b", "2", "--n", "4", "--d", "nan", "--v", "1"],
        ["hoeffding", "--b", "2", "--n", "4", "--i", "1", "--eps", "nan", "--trials", "5", "--seed", "1"],
        ["hoeffding", "--b", "2", "--n", "4", "--i", "1", "--eps", "inf", "--trials", "5", "--seed", "1"],
        ["t2", "--b", "2", "--nmax", "0"],
        ["t2", "--b", "2", "--nmax", "-3"],
    ),
)
def test_bad_argument_is_one_line_domain_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("ValueError: ") and len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize(
    "argv",
    (
        ["density", "--b", "2", "--n", "8", "--trials", "5", "--seed", "-1"],
        ["density", "--b", "2", "--n", "8", "--trials", "5", "--seed", "-1", "--exhaustive"],
        ["hoeffding", "--b", "2", "--n", "8", "--i", "1", "--eps", "0.1", "--trials", "5", "--seed", "-1"],
    ),
)
def test_negative_seed_is_one_line_domain_error(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "ValueError: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    (
        # 2 x 10^15 digits: an allocation larger than the address space,
        # which fails at once
        ["hoeffding", "--b", "2", "--n", "1000000000000000", "--i", "1", "--eps", "0.1", "--trials", "2", "--seed", "1"],
        ["density", "--b", "2", "--n", "1000000000000000", "--trials", "2", "--seed", "1"],
    ),
)
def test_out_of_memory_is_one_line_error(argv, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("MemoryError: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_recursion_limit_is_one_line_error(monkeypatch, capsys):
    # the search recurses about once per nonzero coefficient it fixes, so
    # a deep enough input exhausts the interpreter's stack
    def deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(factor, "_divisors", deep)
    assert cli.main(["classify", "2:1,1,1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "RecursionError: maximum recursion depth exceeded\n"


def test_census_resume_honours_threads(tmp_path, capsys):
    argv = ["census", "--b", "2", "--n", "9", "--format", "csv", "--resume"]
    code1, one = run(capsys, *argv, str(tmp_path / "one.json"))
    code2, two = run(capsys, *argv, str(tmp_path / "two.json"), "--threads", "2")
    assert code1 == code2 == 0 and one == two
    assert (tmp_path / "one.json").read_text() == (tmp_path / "two.json").read_text()


def test_density_exhaustive_honours_threads(capsys):
    argv = ["density", "--b", "2", "--n", "6", "--trials", "8", "--seed", "1", "--exhaustive"]
    one = run_json(capsys, *argv)
    two = run_json(capsys, *argv, "--threads", "2")
    assert one["report"] == two["report"]


@pytest.fixture
def pools(tmp_path, monkeypatch):
    """The worker count of each process pool built, with the pool
    replaced by one that runs the jobs in-process, on a host of 64 usable
    cores."""
    built = []

    class RecordingPool:
        def __init__(self, max_workers):
            built.append({"max_workers": max_workers})

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(census, "_start_pool", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    return built


# (argv, the plan's cost in digit planes: the sieve's 27 core products at
# PRODUCT_PLANES each, the digit planes of the draws)
PLANS = (
    (["census", "--b", "2", "--n", "6"], 27 * census.PRODUCT_PLANES),
    (["census", "--b", "2", "--n", "6", "--resume", "ck.json"], 27 * census.PRODUCT_PLANES),
    (["density", "--b", "2", "--n", "6", "--trials", "4096", "--seed", "1"], 4096 * 6),
    (["density", "--b", "2", "--n", "6", "--trials", "8", "--seed", "1", "--exhaustive"], 27 * census.PRODUCT_PLANES),
)


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("argv, cost", PLANS, ids=[f"argv{i}" for i in range(len(PLANS))])
def test_threaded_runs_build_one_pool(argv, cost, threads, pools, monkeypatch, capsys):
    # a plan whose cost reaches the break-even
    monkeypatch.setattr(census, "POOL_BREAK_EVEN", cost)
    run_json(capsys, *argv, "--threads", str(threads))
    assert pools == ([{"max_workers": 2}] if threads == 2 else [])


@pytest.mark.parametrize("argv, cost", PLANS, ids=[f"argv{i}" for i in range(len(PLANS))])
def test_plans_under_the_break_even_build_no_pool(argv, cost, pools, monkeypatch, capsys):
    monkeypatch.setattr(census, "POOL_BREAK_EVEN", cost + 1)
    run_json(capsys, *argv, "--threads", "2")
    assert pools == []


@pytest.mark.parametrize(
    "argv, pooled",
    (
        # 23,211 core products and 4096 * 28 digit planes: the benchmark's
        # --threads 2 runs
        (["census", "--b", "2", "--n", "14"], False),
        (["density", "--b", "2", "--n", "28", "--trials", "4096", "--seed", "1"], False),
        # 2,271,915 core products, above the break-even at an eighth of a
        # plane each
        (["census", "--b", "2", "--n", "20", "--space", "exact-degree"], True),
        # draws longer than a word go to the depth-first search
        (["density", "--b", "2", "--n", "65", "--trials", "2049", "--seed", "1"], True),
        # 502,443 and 324,405 core products, under it
        (["census", "--b", "2", "--n", "18"], False),
        (["census", "--b", "4", "--n", "8"], False),
    ),
)
def test_only_plans_that_repay_a_pool_start_one(argv, pooled, pools, capsys):
    run_json(capsys, *argv, "--threads", "2")
    assert pools == ([{"max_workers": 2}] if pooled else [])


def test_pool_is_no_larger_than_the_job_list(pools, monkeypatch, capsys):
    # the b=2 n=4 sieve is two degrees, 3 and 2; one 2048-draw chunk runs
    # in-process
    monkeypatch.setattr(census, "POOL_BREAK_EVEN", 0)
    run_json(capsys, "census", "--b", "2", "--n", "4", "--threads", "64")
    run_json(capsys, "density", "--b", "2", "--n", "6", "--trials", "8", "--seed", "1", "--threads", "2")
    assert pools == [{"max_workers": 2}]


def test_pool_is_no_larger_than_the_usable_cores(pools, monkeypatch, capsys):
    # six sieve degrees and five chunks on three usable cores
    monkeypatch.setattr(census, "POOL_BREAK_EVEN", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    run_json(capsys, "census", "--b", "2", "--n", "8", "--threads", "64")
    run_json(capsys, "density", "--b", "2", "--n", "6", "--trials", "10000", "--seed", "1", "--threads", "5000")
    run_json(capsys, "census", "--b", "2", "--n", "8", "--threads", "2")
    assert pools == [{"max_workers": 3}, {"max_workers": 3}, {"max_workers": 2}]


@pytest.fixture
def started(monkeypatch):
    """The worker count of each real process pool started."""
    counts = []
    start = census._start_pool

    def recording(workers):
        counts.append(workers)
        return start(workers)

    monkeypatch.setattr(census, "_start_pool", recording)
    return counts


def test_pooled_runs_leave_no_process_behind(started, monkeypatch, capsys):
    monkeypatch.setattr(census, "POOL_BREAK_EVEN", 0)
    run_json(capsys, "census", "--b", "2", "--n", "10", "--threads", "2")
    assert started == [2] and multiprocessing.active_children() == []
    run_json(capsys, "density", "--b", "2", "--n", "8", "--trials", "4096", "--seed", "1", "--threads", "2")
    assert started == [2, 2] and multiprocessing.active_children() == []


# small runs at --threads 2, then, with the break-even at 0, one that
# starts a pool; prints whether the pool's modules were imported after each
LAZY_IMPORT = """
import json, sys
from maxminpoly import census, cli

loaded = lambda: [name in sys.modules for name in ("concurrent.futures", "concurrent.futures.process")]
cli.build_parser()
cli.main(["census", "--b", "2", "--n", "14", "--threads", "2"])
cli.main(["census", "--b", "2", "--n", "12", "--resume", sys.argv[1], "--threads", "2"])
cli.main(["density", "--b", "2", "--n", "28", "--trials", "4096", "--seed", "1", "--threads", "2"])
small = loaded()
census.POOL_BREAK_EVEN = 0
cli.main(["census", "--b", "2", "--n", "8", "--threads", "2"])
print(json.dumps([small, loaded()]))
"""


def test_a_run_without_a_pool_never_imports_it(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT, str(tmp_path / "ck.json")], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[False, False], [True, True]]


# imports the package, builds the parser and runs the commands that
# decide one input at a time, a usage error and a domain error, then a
# census; prints which numpy-backed modules were loaded after each step
STARTUP_IMPORTS = """
import contextlib, io, json, sys

NUMPY_MODULES = ("numpy", "maxminpoly.census", "maxminpoly.series", "maxminpoly.stochastic")
loaded = lambda: [name for name in NUMPY_MODULES if name in sys.modules]
seen = {}
import maxminpoly
seen["import"] = loaded()
from maxminpoly import cli
cli.build_parser()
seen["parser"] = loaded()
steps = {
    "classify": ["classify", "2:1,1,0,1,1,0,1,1,1,0,0,1,1,0,1,1,1,0,1,1,0,1,1,1,1,0,0,1,1"],
    "factor": ["factor", "3:1,2,0,2,1,1,0,2,1", "--all"],
    "divide": ["divide", "2:1,1,1,1", "2:1,1"],
    "decompose-set": ["decompose-set", "0,1,2,3,5"],
    "sumset": ["sumset", "0,1", "0,2"],
    "usage error": ["classify"],
    "domain error": ["classify", "2:0,2"],
    "census": ["census", "--b", "2", "--n", "6"],
}
for step, argv in steps.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    seen[step] = [code, loaded()]
print(json.dumps(seen))
"""


def test_start_up_and_one_input_commands_never_import_numpy():
    proc = subprocess.run([sys.executable, "-c", STARTUP_IMPORTS], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("import") == seen.pop("parser") == []
    census_code, census_loaded = seen.pop("census")
    assert census_code == 0 and "numpy" in census_loaded
    codes = {step: code for step, (code, _) in seen.items()}
    assert codes == {"classify": 0, "factor": 0, "divide": 0, "decompose-set": 0, "sumset": 0, "usage error": 2, "domain error": 1}
    assert all(modules == [] for _, modules in seen.values()), seen


# every subcommand once, with small arguments
EVERY_SUBCOMMAND = (
    ["classify", "2:0,1,1,0,1", "--format", "text"],
    ["factor", "2:1,1,1,1", "--all"],
    ["divide", "2:0,1,1,0,1", "2:0,1"],
    ["census", "--b", "2", "--n", "8", "--threads", "2"],
    ["partition", "--b", "2", "--n", "6", "--d", "2", "--v", "2"],
    ["close-pairs", "--n", "6", "--k", "1", "--d", "1"],
    ["density", "--b", "3", "--n", "8", "--trials", "300", "--seed", "1", "--threads", "2"],
    ["hoeffding", "--b", "2", "--n", "8", "--i", "1", "--eps", "0.1", "--trials", "50", "--seed", "1"],
    ["bounds", "--b", "2", "--n", "20", "--schedule-default"],
    ["t2", "--b", "3", "--nmax", "3", "--format", "csv"],
    ["series-scan", "--file", "stream.txt", "--pattern", "1,0,1"],
    ["sumset", "0,1", "0,2"],
    ["decompose-set", "0,1,2,3"],
)


def test_every_subcommand_prints_the_same_in_a_fresh_process(tmp_path, monkeypatch, capsys):
    # a fresh interpreter imports only what the command itself imports, so
    # a module that works only once a test has imported it fails here
    assert {argv[0] for argv in EVERY_SUBCOMMAND} == set(next(a.choices for a in cli.build_parser()._actions if a.dest == "command"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "stream.txt").write_text("2 12\n1 0 1 1 0 1 0 1 1 1 0 1\n")
    for argv in EVERY_SUBCOMMAND:
        proc = subprocess.run(
            [sys.executable, "-m", "maxminpoly.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=120
        )
        code, out = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out) and code == 0, (argv, proc.stderr)


@pytest.mark.parametrize("argv", (["census", "--b", "1", "--n", "4"], ["classify", "2:0,2"]))
def test_a_bad_input_in_a_fresh_process_is_one_line(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "maxminpoly.cli", *argv], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("DigitOutOfRange: ") and len(proc.stderr.strip().splitlines()) == 1


# (argv, whether it starts a pool at --threads 2 and 4): each kind of run
# on both sides of the break-even
IDENTITY_RUNS = (
    (["census", "--b", "2", "--n", "12"], False),
    (["census", "--b", "2", "--n", "20"], True),
    (["census", "--b", "3", "--n", "8", "--space", "exact-degree"], False),
    (["census", "--b", "2", "--n", "20", "--space", "exact-degree"], True),
    (["census", "--b", "2", "--n", "12", "--resume", "ck.json"], False),
    (["census", "--b", "2", "--n", "20", "--resume", "ck.json"], True),
    (["density", "--b", "2", "--n", "28", "--trials", "4096", "--seed", "3"], False),
    (["density", "--b", "3", "--n", "20", "--trials", "8192", "--seed", "3", "--space", "exact-degree"], True),
    (["density", "--b", "2", "--n", "12", "--trials", "8", "--seed", "3", "--exhaustive"], False),
    (["density", "--b", "2", "--n", "20", "--trials", "8", "--seed", "3", "--exhaustive"], True),
)


@pytest.mark.parametrize("argv, pooled", IDENTITY_RUNS)
def test_output_does_not_depend_on_the_worker_count(argv, pooled, started, tmp_path, monkeypatch, capsys):
    # four usable cores, so that --threads 4 starts four workers; stdout is
    # compared byte for byte but for the echoed flag
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    outs = set()
    for threads in (1, 2, 4):
        (tmp_path / "ck.json").unlink(missing_ok=True)
        code, out = run(capsys, *argv, "--threads", str(threads))
        assert code == 0 and out.count(f'"threads": {threads}') == 1, out
        outs.add(out.replace(f'"threads": {threads}', ""))
    assert len(outs) == 1
    assert started == ([2, 4] if pooled else [])


def test_resume_with_threads_writes_the_shard_plan(pools, tmp_path, capsys):
    rep = run_json(capsys, "census", "--b", "2", "--n", "14", "--resume", "ck.json", "--threads", "2")
    # a sieve of 23,211 core products runs in-process
    assert pools == []
    assert rep["record"] == dataclasses.asdict(census.census(2, 14))
    state = json.loads((tmp_path / "ck.json").read_text())
    assert "shard_size" not in state and state["tally"] == "valuations"
    # the valuation ranges, t = 0 first: x^t * c has an index in [2^(13-t), 2^(14-t))
    ranges = [(s["range_start"], s["range_end"]) for s in state["shards"]]
    assert ranges == [(2 ** (13 - t), 2 ** (14 - t)) for t in range(13)] + [(0, 2)]


def test_resume_rejects_an_older_shard_layout(tmp_path, capsys):
    # the header a fixed 2^16-vector shard size wrote at b=2 n=14
    path = tmp_path / "ck.json"
    header = {"b": 2, "n": 14, "space": census.ALL_VECTORS, "shard_size": 65536, "version": __version__}
    # its one shard counted the whole space
    part = census.census(2, 14)
    path.write_text(json.dumps({**header, "shards": [{"range_start": 0, "range_end": 2**14, "partial": dataclasses.asdict(part)}]}))
    code = cli.main(["census", "--b", "2", "--n", "14", "--resume", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("ValueError: ") and len(captured.err.strip().splitlines()) == 1


def _resume_fails_in_one_line(capsys, path, n):
    code = cli.main(["census", "--b", "2", "--n", str(n), "--resume", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("ValueError: ") and len(captured.err.strip().splitlines()) == 1
    return captured.err


def test_resume_rejects_a_per_vector_checkpoint(tmp_path, capsys):
    # the header and partials written when each shard counted its own
    # vectors before the orbit tally: the same shard plan, no tally marker
    path = tmp_path / "ck.json"
    header = {"b": 2, "n": 8, "space": census.ALL_VECTORS, "shard_size": 16, "version": __version__}
    shards = []
    for start in range(0, 2**8, 16):
        part = _per_vector_record(2, 8, census.ALL_VECTORS, census.iter_vectors(2, 8, census.ALL_VECTORS, start, start + 16))
        shards.append({"range_start": start, "range_end": start + 16, "partial": dataclasses.asdict(part)})
    assert sum(s["partial"]["total"] for s in shards) == 2**8 - 1
    path.write_text(json.dumps({**header, "shards": shards}))
    assert "tally" in _resume_fails_in_one_line(capsys, path, 8)
    # and the orbit tally's header
    path.write_text(json.dumps({**header, "tally": "orbits", "shards": shards}))
    assert "tally" in _resume_fails_in_one_line(capsys, path, 8)


def test_resume_rejects_a_checkpoint_of_index_ranges(tmp_path, capsys):
    # the layout of the sixteen index ranges at b=2 n=14: their shard size,
    # the tally marker "vectors" and each range's per-vector tally
    path = tmp_path / "ck.json"
    header = {"b": 2, "n": 14, "space": census.ALL_VECTORS, "shard_size": 1024, "tally": "vectors", "version": __version__}
    shards = []
    for start in range(0, 2**14, 1024):
        part = _per_vector_record(2, 14, census.ALL_VECTORS, census.iter_vectors(2, 14, census.ALL_VECTORS, start, start + 1024))
        shards.append({"range_start": start, "range_end": start + 1024, "partial": dataclasses.asdict(part)})
    assert sum(s["partial"]["total"] for s in shards) == 2**14 - 1
    path.write_text(json.dumps({**header, "shards": shards}))
    assert "tally" in _resume_fails_in_one_line(capsys, path, 14)
    assert json.loads(path.read_text()) == {**header, "shards": shards}


# `census --resume` with each sieve degree slowed down and recorded as it
# starts and as it ends, on a pool of two whatever its cost and the
# host's cores; the forked workers find the slowed function in __main__
SLOW_SIEVE = """
import os, sys, time
from pathlib import Path
from maxminpoly import census, cli

census.POOL_BREAK_EVEN = 0
os.sched_getaffinity = lambda pid: {0, 1}

sieve = census._sieve_degree


def slow_sieve(b, m):
    Path(sys.argv[1], f"{m}.start").touch()
    time.sleep(0.2)
    Path(sys.argv[1], f"{m}.end").touch()
    return sieve(b, m)


census._sieve_degree = slow_sieve
sys.exit(cli.main(sys.argv[2:]))
"""


def test_interrupted_threaded_resume_ends_and_keeps_the_checkpoint(tmp_path):
    # Ctrl-C, a SIGINT to the whole process group, once the pool runs a
    # degree: the run must end, where a hang fails at the timeout, let the
    # running degrees finish, skip the ones not yet started and leave the
    # checkpoint as it was, here one with no shard counted yet
    path, started = tmp_path / "ck.json", tmp_path / "started"
    started.mkdir()
    header = {"b": 2, "n": 14, "space": census.ALL_VECTORS, "tally": "valuations", "version": __version__}
    before = json.dumps({**header, "shards": []})
    path.write_text(before)
    argv = ["census", "--b", "2", "--n", "14", "--resume", str(path), "--threads", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-c", SLOW_SIEVE, str(started), *argv],
        env=_src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(started.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode != 0 and out == b""
    assert b"KeyboardInterrupt" in err, err.decode()[-2000:]
    marks = {p.name for p in started.iterdir()}
    degrees = {name.split(".")[0] for name in marks}
    assert marks == {f"{m}.{end}" for m in degrees for end in ("start", "end")}
    # 12 degrees, 13 down to 2: the pending ones were cancelled
    assert 0 < len(degrees) < 12
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json", "started"]


@pytest.mark.parametrize("tamper", ("range_end", "total"))
def test_resume_rejects_a_tampered_shard(tmp_path, capsys, tamper):
    path = tmp_path / "ck.json"
    run_json(capsys, "census", "--b", "2", "--n", "6", "--resume", str(path))
    state = json.loads(path.read_text())
    if tamper == "range_end":
        del state["shards"][3]["range_end"]
    else:
        state["shards"][3]["partial"]["total"] = 999
    path.write_text(json.dumps(state))
    _resume_fails_in_one_line(capsys, path, 6)


@pytest.mark.parametrize(
    "argv",
    (
        ["classify", "2:1,1,1", "--format", "csv"],
        ["factor", "2:1,1,1", "--format", "text"],
        ["divide", "2:1,1", "2:1", "--format", "csv"],
        ["census", "--b", "2", "--n", "4", "--format", "text"],
        ["partition", "--b", "2", "--n", "4", "--d", "2", "--v", "2", "--format", "csv"],
        ["density", "--b", "2", "--n", "4", "--trials", "8", "--seed", "1", "--format", "csv"],
        ["t2", "--b", "2", "--nmax", "3", "--format", "text"],
        ["sumset", "0,1", "0,2", "--format", "csv"],
        ["decompose-set", "0,1", "--format", "csv"],
    ),
)
def test_unsupported_format_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--format" in captured.err


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


PARTITION_B3_N5 = """{
  "a": 1,
  "b": 3,
  "explicit_bounds": [
    309.8872816881818,
    2505.169421193094,
    309.8872816881818,
    2505.169421193094,
    156250.00000000003,
    0.0,
    422828883.8048871
  ],
  "flags": {
    "b": 3,
    "command": "partition",
    "d": 3.0,
    "force": false,
    "n": 5,
    "v": 1.0
  },
  "n": 5,
  "sigma": 91,
  "sizes": [
    42,
    0,
    0,
    0,
    57,
    0,
    7
  ],
  "total": 242,
  "version": "%s"
}
"""


def test_partition_report_is_fixed(capsys):
    # the report of the per-vector loop that the block enumeration replaced
    assert run(capsys, "partition", "--b", "3", "--n", "5", "--d", "3", "--v", "1") == (0, PARTITION_B3_N5 % __version__)


@pytest.mark.parametrize("d, v", (("2", "2000"), ("400", "2")))
def test_partition_overflowing_bound_is_null(d, v, capsys):
    rep = run_json(capsys, "partition", "--b", "2", "--n", "4", "--d", d, "--v", v)
    assert len(rep["explicit_bounds"]) == 7 and rep["explicit_bounds"][4] is None


def test_close_pairs(capsys):
    rep = run_json(capsys, "close-pairs", "--n", "8", "--k", "3", "--d", "2")
    assert rep["holds"] is True


def test_close_pairs_over_the_bound_is_one_line_domain_error(capsys):
    code = cli.main(["close-pairs", "--n", "15", "--k", "1", "--d", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.strip() == "BoundExceeded: close-pair count 470 exceeds the bound n^(2d+2) * 2^k = 450"


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
