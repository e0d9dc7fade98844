"""The workloads: operation lists built from a seed, with checks.

A workload is two parts.  `decision-path` runs the census and density
parts, whose every classification goes through the witness-free
decision; `witness-and-kernels` runs the classify and stream parts,
which never reach it.  `build(workload, seed, k, workdir)` returns the
operations of pass k.  The same (seed, k) always yields the same inputs.
CLI operations go through `cli.main(argv)` in-process with stdout
captured; library operations call the package's public functions.  Both
are looked up on their module at call time, so the tracer's wrappers
apply.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import expect
from maxminpoly import census, cli, core, factor, series


@dataclass
class Op:
    label: str  # the operation as a user would write it; starts with the command or function
    call: Callable[[], object]
    check: Callable[[object], None]
    work: int  # units of the workload's throughput metric
    prepare: Callable[[], None] | None = None
    group: str = ""  # ops of one group repeat with fresh inputs; the label by default
    timeout_s: float = 60  # slower counts as failed; set from PARTS

    def __post_init__(self):
        self.group = self.group or self.label

    @property
    def name(self) -> str:
        """The command or function; the operation's span is "op.<name>"."""
        return self.label.split()[0]


def run_cli(argv: list[str]) -> dict:
    """`cli.main(argv)` with stdout captured; the parsed JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise checks.CheckFailed(f"exit code {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def cli_op(argv: str, check, work: int, prepare=None, group="") -> Op:
    args = argv.split()
    return Op(argv, lambda: run_cli(args), check, work, prepare, group)


def _rng(seed: int, k: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, k, salt)))


def _digits(rng, b: int, n: int) -> list[int]:
    """n uniform digits over base b with a nonzero leading digit."""
    d = rng.integers(0, b, size=n)
    d[-1] = rng.integers(1, b)
    return d.tolist()


def _fmt(b: int, digits) -> str:
    return f"{b}:" + ",".join(map(str, digits))


# -- census part ---------------------------------------------------------------------


def _census_ops(rng, workdir: Path) -> list[Op]:
    n2 = 14  # base-2 length; the vectors of every base-2 op

    def record(data):
        checks.check_census_record(data["record"])

    ckpt = workdir / "census.ckpt.json"

    def resumed(data):
        record(data)
        checks.check_checkpoint(json.loads(ckpt.read_text()), 2**n2)

    def partition(b, n):
        return cli_op(
            f"partition --b {b} --n {n} --d 2 --v 2",
            lambda data: checks.check_partition(data, b, n, 2, 2),
            b**n - 1,
        )

    ops = [
        cli_op(f"census --b {b} --n {n}", record, b**n - 1)
        for b, n in ((2, n2), (3, 8), (4, 6), (10, 3))
    ]
    ops += [
        cli_op(f"census --b 2 --n {n2} --space exact-degree", record, 2 ** (n2 - 1)),
        cli_op(
            f"census --b 2 --n {n2} --resume {ckpt}",
            resumed,
            2**n2 - 1,
            prepare=lambda: ckpt.unlink(missing_ok=True),
        ),
        cli_op(f"census --b 2 --n {n2} --threads 2", record, 2**n2 - 1),
        partition(2, 10),
        partition(3, 6),
        cli_op(
            "close-pairs --n 16 --k 6 --d 2",
            lambda data: checks.check_close_pairs(data, 16, 6, 2),
            2**15,
        ),
    ]
    rng.shuffle(ops)
    return ops


# -- density part --------------------------------------------------------------------

# (b, n, trials, copies): deep base-2 proofs plus generic bases at sizes
# whose per-draw cost is not so heavy-tailed that a run's total depends
# mostly on a few draws.  Many short commands give every group enough
# latency samples per run.  The first entry also runs with --threads 2;
# it needs two of the package's 2048-draw chunks to use both workers.
DENSITY_SIZES = ((2, 28, 4096, 1), (2, 40, 16, 8), (10, 8, 8, 6), (3, 20, 16, 6), (4, 16, 8, 4))


def _density_ops(rng, workdir: Path) -> list[Op]:
    counts: dict[tuple, int] = {}

    def check(key):
        trials = key[2]

        def run(data):
            rep = data["report"]
            hits = rep["irreducible"]
            expect(rep["trials"] == trials and 0 <= hits <= trials, f"density counts {rep}")
            expect(rep["estimate"] == hits / trials, f"density estimate {rep}")
            expect(rep["ci_low"] <= rep["estimate"] <= rep["ci_high"], f"density interval {rep}")
            # the result must not depend on --threads
            expect(counts.setdefault(key, hits) == hits, f"{key}: {hits} != {counts[key]}")

        return run

    ops = []
    for i, (b, n, trials, copies) in enumerate(DENSITY_SIZES):
        group = f"density --b {b} --n {n} --trials {trials}"
        for _ in range(copies):
            seed = int(rng.integers(2**31))
            argv = f"{group} --seed {seed}"
            key = (b, n, trials, seed)
            ops.append(cli_op(argv, check(key), trials, group=group))
            if i == 0:
                ops.append(cli_op(argv + " --threads 2", check(key), trials, group=group + " --threads 2"))
    return ops


# -- classify part -------------------------------------------------------------------

# Degrees at which one command costs milliseconds.
CLASSIFY_DEG = {2: 28, 3: 18, 4: 12, 10: 6}
FACTOR_DEG = {2: 16, 3: 8, 4: 6, 10: 4}
DIVIDE_LENS = (40, 20)
PER_PASS = 40  # commands of each kind per pass


def _decision_agrees(poly: core.MaxMinPoly, kind: str) -> None:
    """Base-2 classes must agree with the witness-free decision path."""
    if poly.base == 2 and kind != factor.MONOMIAL:
        reducible = factor._b2_reducible(core.support_mask(poly.coeffs))
        expect(reducible == (kind == factor.REDUCIBLE), f"{poly}: {kind} but decision says reducible={reducible}")


def _check_class(poly: core.MaxMinPoly, data: dict) -> None:
    kind = data["class"]
    expect(data["input"] == core.format_poly(poly), f"echoed input {data['input']}")
    if kind == factor.REDUCIBLE:
        expect(data["witness"] is not None, "reducible without a witness")
        checks.check_witness(poly, data["witness"])
    else:
        expect(data["witness"] is None, f"{kind} with a witness")
    _decision_agrees(poly, kind)
    if factor.candidate_reason(poly) is None:
        want = factor.COMPOSITE_CANDIDATE if kind == factor.REDUCIBLE else factor.PRIME
    else:
        want = factor.NOT_CANDIDATE
    expect(data["prime"] == want, f"prime status {data['prime']} != {want}")


def _classify_ops(rng, workdir: Path) -> list[Op]:
    bases = tuple(CLASSIFY_DEG)
    ops = []
    for i in range(PER_PASS):
        b = bases[i % len(bases)]
        poly = core.poly_new(b, _digits(rng, b, CLASSIFY_DEG[b] + 1))
        ops.append(cli_op(f"classify {poly}", lambda d, p=poly: _check_class(p, d), 1, group=f"classify b={b}"))

        fpoly = core.poly_new(b, _digits(rng, b, FACTOR_DEG[b] + 1))

        def factored(data, p=fpoly):
            _check_class(p, data)
            for pair in data["factorizations"]:
                checks.check_witness(p, pair)
            expect(bool(data["factorizations"]) == (data["class"] == factor.REDUCIBLE), "factorization list")

        ops.append(cli_op(f"factor {fpoly} --all", factored, 1, group=f"factor --all b={b}"))

        elements = [j for j, c in enumerate(_digits(rng, 2, CLASSIFY_DEG[2] + 1)) if c]

        def decomposed(data, s=elements):
            expect(data["set"] == s, f"echoed set {data['set']}")
            _decision_agrees(core.from_set(s), data["class"])
            if data["class"] == factor.REDUCIBLE:
                checks.check_sumset(s, data["summands"])

        ops.append(cli_op("decompose-set " + ",".join(map(str, elements)), decomposed, 1, group="decompose-set"))

        db = (2, 3, 10)[i % 3]
        f = core.poly_new(db, _digits(rng, db, DIVIDE_LENS[0]))
        g = core.poly_new(db, _digits(rng, db, DIVIDE_LENS[1]))
        h = core.MaxMinPoly(db, checks.trimmed(checks.maxmin_conv(f.coeffs, g.coeffs)))

        def divided(data, f=f, g=g, h=h):
            expect(data["divides"] is True, f"{h} / {g} reported not divisible")
            q = core.parse_poly(data["quotient"])
            expect(core.mul(q, g) == h, f"quotient {q} does not multiply back")
            expect(all(a <= c for a, c in zip(f.coeffs, q.coeffs)), f"quotient {q} is not maximal")

        ops.append(cli_op(f"divide {h} {g}", divided, 1, group=f"divide b={db}"))
    rng.shuffle(ops)
    return ops


# -- stream part ---------------------------------------------------------------------

STREAM_BASE = 3
STREAM_LEN = 500_000
POLY_STREAM = (100_000, 64)  # stream digits x polynomial degree
STREAM_STREAM = 2000
MUL_LEN = 1024
MUL_BASES = (2, 3, 10)


def _write_stream(path: Path, digits: np.ndarray) -> None:
    """The two-line stream format, written without the package."""
    body = np.full(2 * len(digits), ord(" "), dtype=np.uint8)
    body[0::2] = digits + ord("0")
    body[-1] = ord("\n")
    path.write_bytes(f"{STREAM_BASE} {len(digits)}\n".encode() + body.tobytes())


def _stream_ops(rng, workdir: Path) -> list[Op]:
    b, n = STREAM_BASE, STREAM_LEN
    digits = rng.integers(0, b, size=n).astype(np.uint8)
    text = (digits + ord("0")).tobytes().decode()
    path = workdir / "stream.txt"
    _write_stream(path, digits)
    ops = []

    def scan(argv, check):
        label = f"series-scan --file {path} {argv}"
        ops.append(cli_op(label, check, n, group=" ".join(label.split()[:4])))

    m = 3

    def t1(data):
        support = text.translate(str.maketrans("2", "1"))
        want = checks.count_overlapping(support, "0" * (m + 1) + "1" + "0" * (m + 1))
        expect(data["forbidden_occurrences"] == want, f"forbidden {data['forbidden_occurrences']} != {want}")
        want_ok = checks.isolation_ok(digits, m)
        expect(data["isolation_ok"] == want_ok, f"isolation {data['isolation_ok']} != {want_ok}")

    scan(f"--t1 {m}", t1)

    pattern = rng.integers(0, b, size=6).tolist()

    def counted(data):
        want = checks.count_overlapping(text, "".join(map(str, pattern)))
        expect(data["count"] == want and data["valid_to"] == n, f"count {data['count']} != {want}")

    scan("--pattern " + ",".join(map(str, pattern)), counted)

    g = _digits(rng, b, 16)
    while sum(1 for c in g if c) < 6:
        g = _digits(rng, b, 16)

    def windows(data):
        k, r, ones = checks.window_family(b, g)
        occ = checks.window_count(digits, r, ones)
        rep = data["report"]
        expect((data["k"], data["r"], data["window_ones"]) == (k, r, k), f"window family {data}")
        expect(rep["windows"] == n - r + 1 and rep["occurrences"] == occ, f"window counts {rep} != {occ}")

    scan("--z-from " + _fmt(b, g), windows)

    def product(f_digits, other, other_digits, label):
        stream = series.make_stream(b, f_digits.tolist())
        want = checks.maxmin_conv(f_digits, other_digits)[: len(f_digits)]

        def check(out):
            checks.check_digits(out.digits, want, label)
            checks.check_prefix(out.digits, b, f_digits, other_digits, label)
            expect(out.valid_to == len(f_digits), f"{label}: valid_to {out.valid_to}")

        return Op(label, lambda: series.product_stream(stream, other), check, len(want))

    poly_len, deg = POLY_STREAM
    gp = core.poly_new(b, _digits(rng, b, deg + 1))
    ops.append(product(digits[:poly_len], gp, gp.coeffs, f"product_stream {poly_len} x deg {deg}"))
    s1 = digits[poly_len : poly_len + STREAM_STREAM]
    s2 = digits[poly_len + STREAM_STREAM : poly_len + 2 * STREAM_STREAM]
    other = series.make_stream(b, s2.tolist())
    ops.append(product(s1, other, s2, f"product_stream {STREAM_STREAM} x {STREAM_STREAM}"))

    for mb in MUL_BASES:
        f = core.poly_new(mb, _digits(rng, mb, MUL_LEN))
        gm = core.poly_new(mb, _digits(rng, mb, MUL_LEN))
        want = checks.trimmed(checks.maxmin_conv(f.coeffs, gm.coeffs))
        h = core.MaxMinPoly(mb, want)

        def multiplied(out, f=f, g=gm, want=want, label=f"mul b={mb}"):
            checks.check_digits(out.coeffs, want, label)
            checks.check_prefix(out.coeffs, out.base, f.coeffs, g.coeffs, label)

        def divided(q, f=f, g=gm, h=h):
            expect(q is not None, f"residual_divide b={h.base} found no quotient")
            checks.check_digits(checks.trimmed(checks.maxmin_conv(q.coeffs, g.coeffs)), h.coeffs, "quotient")
            expect(all(a <= c for a, c in zip(f.coeffs, q.coeffs)), "quotient is not maximal")

        ops.append(Op(f"mul b={mb} {MUL_LEN}", lambda f=f, g=gm: core.mul(f, g), multiplied, len(want)))
        ops.append(
            Op(
                f"residual_divide b={mb} {len(want)} / {MUL_LEN}",
                lambda h=h, g=gm: factor.residual_divide(h, g),
                divided,
                len(f.coeffs),
            )
        )
    return ops


# part -> (builder, seconds after which an operation counts as failed)
PARTS = {
    "census": (_census_ops, 60),
    "density": (_density_ops, 60),
    "classify": (_classify_ops, 10),
    "stream": (_stream_ops, 30),
}
WORKLOAD_PARTS = {
    "decision-path": ("census", "density"),
    "witness-and-kernels": ("classify", "stream"),
}
WORKLOADS = tuple(WORKLOAD_PARTS)


def build_part(part: str, seed: int, k: int, workdir: Path) -> list[Op]:
    """The operations of one part in pass k."""
    builder, timeout_s = PARTS[part]
    ops = builder(_rng(seed, k, list(PARTS).index(part)), workdir)
    for op in ops:
        op.timeout_s = timeout_s
    return ops


def build(workload: str, seed: int, k: int, workdir: Path) -> list[Op]:
    """The operations of pass k of a workload."""
    return [op for part in WORKLOAD_PARTS[workload] for op in build_part(part, seed, k, workdir)]
