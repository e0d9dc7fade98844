"""Command-line front end.

Every subcommand prints a machine-readable report (JSON by default) that
embeds the package version, the parsed flags and, for randomized
commands, the seed and generator identity.  Randomized subcommands
require an explicit --seed.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__, census, core, factor, series, stochastic
from .errors import MaxMinError


def _jsonable(obj):
    if isinstance(obj, core.MaxMinPoly):
        return core.format_poly(obj)
    if isinstance(obj, Fraction):
        return {"numerator": obj.numerator, "denominator": obj.denominator, "float": float(obj)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str] | None = None, csv_lines: list[str] | None = None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and csv_lines is not None:
        print("\n".join(csv_lines))
        return
    if fmt == "text" and text_lines is not None:
        print("\n".join(text_lines))
        return
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "format") and v is not None}
    report = {"version": __version__, "flags": _jsonable(flags)}
    if "seed" in flags:
        report["seed"] = flags["seed"]
        report["generator"] = stochastic.GENERATOR_ID
    report.update(_jsonable(payload))
    print(json.dumps(report, indent=2, sort_keys=True))


def _parse_poly_arg(text: str, lenient: bool) -> core.MaxMinPoly:
    return core.parse_poly(text, lenient=lenient)


def _witness_json(w: factor.FactorWitness | None):
    if w is None:
        return None
    return [core.format_poly(w.g), core.format_poly(w.h)]


def _cmd_classify(args) -> None:
    poly = _parse_poly_arg(args.poly, args.lenient)
    cls = factor.classify_irreducible(poly)
    prime = factor.prime_status(poly, cls)
    _emit(
        args,
        {
            "input": core.format_poly(poly),
            "class": cls.kind,
            "witness": _witness_json(cls.witness),
            "prime": prime.kind,
            "prime_reason": prime.reason,
        },
        text_lines=[f"{core.format_poly(poly)}: {cls.kind}" + (f" = {core.format_poly(cls.witness.g)} * {core.format_poly(cls.witness.h)}" if cls.witness else "")],
    )


def _cmd_factor(args) -> None:
    poly = _parse_poly_arg(args.poly, args.lenient)
    cls = factor.classify_irreducible(poly)
    payload = {
        "input": core.format_poly(poly),
        "class": cls.kind,
        "witness": _witness_json(cls.witness),
        "prime": factor.prime_status(poly, cls).kind,
    }
    if args.all:
        wits = factor.all_factorizations(poly, max_results=args.max_results)
        payload["factorizations"] = [_witness_json(w) for w in wits]
    _emit(args, payload)


def _cmd_divide(args) -> None:
    h = _parse_poly_arg(args.h, args.lenient)
    g = _parse_poly_arg(args.g, args.lenient)
    q = factor.residual_divide(h, g)
    _emit(
        args,
        {"h": core.format_poly(h), "g": core.format_poly(g), "quotient": None if q is None else core.format_poly(q), "divides": q is not None},
        text_lines=[core.format_poly(q) if q is not None else "not divisible"],
    )


def _census_worker(job):
    b, n, space, start, end = job
    return census.census_range(b, n, space, start, end)


def _cmd_census(args) -> None:
    if args.resume:
        rec = census.census_with_checkpoint(
            args.b, args.n, args.space, args.resume, force=args.force
        )
    elif args.threads > 1:
        census.check_enumeration(args.b, args.n, args.space, force=args.force)
        size = census.space_size(args.b, args.n, args.space)
        shard = max(1, size // (4 * args.threads))
        jobs = [
            (args.b, args.n, args.space, s, min(s + shard, size))
            for s in range(0, size, shard)
        ]
        rec = census.CensusRecord(args.b, args.n, args.space, 0, 0, 0, 0, 0, 0)
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            for part in pool.map(_census_worker, jobs):
                rec = census.merge_records(rec, part)
    else:
        rec = census.census(args.b, args.n, args.space, force=args.force)
    _emit(
        args,
        {"record": rec},
        csv_lines=[census.CSV_HEADER, census.record_to_csv(rec)],
        text_lines=[census.CSV_HEADER, census.record_to_csv(rec)],
    )


def _cmd_partition(args) -> None:
    params = census.BoundParams.make(args.d, args.v)
    part = census.partition_census(args.b, args.n, params, force=args.force)
    _emit(
        args,
        {
            "b": part.b,
            "n": part.n,
            "a": part.a,
            "sizes": list(part.sizes),
            "sigma": part.sigma,
            "total": part.total,
            "explicit_bounds": list(part.explicit_bounds),
        },
    )


def _cmd_close_pairs(args) -> None:
    count = census.close_pair_count(args.n, args.k, args.d, force=args.force)
    bound = census.close_pair_bound(args.n, args.k, args.d)
    _emit(args, {"count": count, "bound": bound, "holds": count <= bound})


def _cmd_density(args) -> None:
    config = stochastic.ExperimentConfig(seed=args.seed, trials=args.trials, b=args.b, n=args.n, space=args.space)
    rep = stochastic.density_experiment(config, exhaustive=args.exhaustive, threads=args.threads)
    _emit(args, {"report": rep})


def _cmd_hoeffding(args) -> None:
    config = stochastic.ExperimentConfig(seed=args.seed, trials=args.trials, b=args.b, n=args.n)
    rep = stochastic.hoeffding_experiment(config, args.i, args.eps)
    _emit(args, {"report": rep})


def _cmd_bounds(args) -> None:
    if args.schedule_default:
        params = stochastic.default_params(args.n)
    else:
        if args.d is None or args.v is None:
            raise MaxMinError("provide --d and --v, or pass --schedule-default")
        params = census.BoundParams.make(args.d, args.v)
    rep = stochastic.bound_terms(args.b, args.n, params)
    _emit(
        args,
        {
            "b": rep.b,
            "n": rep.n,
            "d": rep.d,
            "v": rep.v,
            "log_terms": list(rep.log_terms),
            "terms": [t if t != float("inf") else None for t in rep.term_values()],
        },
    )


def _cmd_t2(args) -> None:
    rows = []
    for n in range(1, args.nmax + 1):
        bound = series.t2_measure_bound(args.b, n)
        rows.append(
            {
                "n": n,
                "lhs": str(bound.lhs),
                "lhs_float": float(bound.lhs),
                "rhs": bound.rhs,
                "holds": series.t2_chain_check(args.b, n),
            }
        )
    csv_lines = ["n,lhs,rhs,holds"] + [f"{r['n']},{r['lhs_float']},{r['rhs']},{r['holds']}" for r in rows]
    _emit(args, {"b": args.b, "ratio": series.t2_ratio(args.b), "rows": rows}, csv_lines=csv_lines)


def _cmd_series_scan(args) -> None:
    stream = series.read_stream(args.file)
    if args.pattern is not None:
        pattern = tuple(int(tok) for tok in args.pattern.split(","))
        count = series.count_occurrences(stream, pattern)
        _emit(args, {"pattern": list(pattern), "count": count, "valid_to": stream.valid_to})
    elif args.t1 is not None:
        h1 = series.support_stream(stream)
        _emit(
            args,
            {
                "m": args.t1,
                "forbidden_occurrences": series.t1_forbidden_scan(h1, args.t1),
                "isolation_ok": series.t1_isolation_check(h1, args.t1),
            },
        )
    else:
        g = _parse_poly_arg(args.z_from, args.lenient)
        if g.base != stream.base:
            raise MaxMinError("polynomial base must match the stream base")
        k = series.choose_k(stream.base)
        r = series.choose_r(g, k)
        z = series.z_set(g, r)
        rep = series.z_frequency_report(stream, z)
        _emit(args, {"k": k, "r": r, "window_ones": z.k, "report": rep})


def _cmd_sumset(args) -> None:
    a = core.natset(int(tok) for tok in args.a.split(","))
    b = core.natset(int(tok) for tok in args.b.split(","))
    s = core.sumset(a, b)
    _emit(args, {"sumset": list(s)}, text_lines=[",".join(str(x) for x in s)])


def _cmd_decompose_set(args) -> None:
    s = core.natset(int(tok) for tok in args.set.split(","))
    poly = core.from_set(s)
    if poly.is_zero():
        raise MaxMinError("the empty set cannot be decomposed")
    cls = factor.classify_irreducible(poly)
    payload: dict = {"set": list(s), "class": cls.kind}
    if cls.kind == factor.REDUCIBLE:
        payload["summands"] = [
            list(core.to_set(cls.witness.g)),
            list(core.to_set(cls.witness.h)),
        ]
        text = " + ".join(
            "{" + ",".join(str(x) for x in part) + "}" for part in payload["summands"]
        )
    else:
        text = cls.kind
    _emit(args, payload, text_lines=[text])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="maxminpoly",
        description="Exact arithmetic, factorization and experiments over max-min digit semirings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, lenient=True):
        if fmt:
            p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        if lenient:
            p.add_argument("--lenient", action="store_true", help="accept non-canonical trailing zeros")

    p = sub.add_parser("classify", help="classify a polynomial")
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("factor", help="classify and optionally list all factorizations")
    p.add_argument("poly")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-results", type=int, default=64)
    common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("divide", help="residual division H / G")
    p.add_argument("h")
    p.add_argument("g")
    common(p)
    p.set_defaults(func=_cmd_divide)

    p = sub.add_parser("census", help="exhaustive classification counts")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=census.SPACES, default=census.ALL_VECTORS)
    p.add_argument("--resume", metavar="FILE", help="checkpoint file to create or resume")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--force", action="store_true", help="override the enumeration budget")
    common(p, lenient=False)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("partition", help="seven-way partition census of the reducible vectors")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--force", action="store_true")
    common(p, lenient=False)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("close-pairs", help="count boolean factor pairs with small combined support")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--force", action="store_true")
    common(p, lenient=False)
    p.set_defaults(func=_cmd_close_pairs)

    p = sub.add_parser("density", help="Monte-Carlo irreducible-density estimate")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--space", choices=census.SPACES, default=census.ALL_VECTORS)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    common(p, lenient=False)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("hoeffding", help="support-size tail frequencies versus the bound")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p, lenient=False)
    p.set_defaults(func=_cmd_hoeffding)

    p = sub.add_parser("bounds", help="normalized reducible-count bound terms")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=float)
    p.add_argument("--v", type=float)
    p.add_argument("--schedule-default", action="store_true")
    common(p, lenient=False)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("t2", help="interval-count bound table")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    common(p, lenient=False)
    p.set_defaults(func=_cmd_t2)

    p = sub.add_parser("series-scan", help="scan a digit-stream file")
    p.add_argument("--file", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern", help="comma-separated digit string to count")
    group.add_argument("--t1", type=int, help="forbidden-string scan with gap parameter m")
    group.add_argument("--z-from", help="polynomial whose support prefix builds the window family")
    common(p)
    p.set_defaults(func=_cmd_series_scan)

    p = sub.add_parser("sumset", help="sumset of two finite sets")
    p.add_argument("a")
    p.add_argument("b")
    common(p, lenient=False)
    p.set_defaults(func=_cmd_sumset)

    p = sub.add_parser("decompose-set", help="decompose a set as a sumset, if possible")
    p.add_argument("set")
    common(p, lenient=False)
    p.set_defaults(func=_cmd_decompose_set)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if getattr(args, "resume", None) and args.threads > 1:
        parser.error("--resume runs one thread; drop --threads")
    if getattr(args, "exhaustive", False) and args.threads > 1:
        parser.error("--exhaustive runs one thread; drop --threads")
    try:
        args.func(args)
    except (MaxMinError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
