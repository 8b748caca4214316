"""Command line front end.

Subcommands: solve, exact, certify, analyze, witness, check-family, gen.
All output is canonical JSON on stdout.  Exit codes: 0 success (and "the
property holds" / "the certificate verifies"), 1 negative verdict, finding,
infeasible instance, or a random `gen` that accepted no instance within its
400-proposal budget, 2 usage errors (a size the tight constructions cannot
take among them) and malformed or unreadable input, 3 an exhaustive search
used up its work budget (or a cut enumeration passed n = 22), 4 an
unexpected internal error (the traceback goes to stderr), 141 (128 +
SIGPIPE) the reader closed stdout before the output was written.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
import traceback

from . import __version__
from .errors import (
    CoverNotMinimalError,
    GenerationError,
    GuardError,
    InfeasibleError,
    NoLaminarWitnessError,
    OracleInvariantError,
    TreeInvariantError,
)
from .exact import FAMILY_CLASSES, brute_force_opt, certify, guarantee_factor
from .gens import instance_rng, random_instance, tight_beta, tight_seven, tight_six
from .jsonio import (
    SCHEMA_VERSION,
    SchemaError,
    analysis_to_json,
    as_explicit_family,
    bound_report_to_json,
    bundle_parts_from_json,
    bundle_to_json,
    certificate_to_json,
    check_result_to_json,
    dumps_canonical,
    family_spec_from_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
    Instance,
    nodeset_to_json,
    trace_from_json,
    trace_to_json,
)
from .setfam import PROPERTIES, check_family, crossing_number
from .smallcuts import CapGraph, beta_bound
from .treeanal import analyze_trace, build_tree, emit_dot, verify_bounds
from .wgmv import solve
from .witness import laminar_witness


def _read_json(path: str):
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read())


def _emit(doc) -> None:
    # Flushed here, so that a closed stdout fails inside `main`.
    print(dumps_canonical(doc), flush=True)


_TIGHT_KINDS = {"tight7": tight_seven, "tight6": tight_six, "tight-beta": tight_beta}


def _add_class_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family-class",
        choices=FAMILY_CLASSES,
        default="gamma",
        help="family class whose guarantee is checked (default: gamma)",
    )
    p.add_argument(
        "--beta",
        type=int,
        help="crossing number: class 'beta' needs it (a bundle or a small-cut instance supplies it), the others refuse it",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pliablecover",
        description="primal-dual covers of set families with exact certificates",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"pliablecover {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the two-phase solver, print the trace")
    p.add_argument("instance", nargs="?", default="-", help="instance JSON file, or - for stdin")

    p = sub.add_parser("exact", help="exact optimum by branch and bound")
    p.add_argument("instance", nargs="?", default="-")

    p = sub.add_parser("certify", help="verify a run against its guarantee")
    p.add_argument("instance", nargs="?", default="-")
    _add_class_args(p)
    p.add_argument("--trace", help="trace JSON to certify (default: re-run the solver)")
    p.add_argument(
        "--with-opt",
        action="store_true",
        help="also compare against the exact optimum (subject to the search's work budget)",
    )

    p = sub.add_parser("analyze", help="witness-tree analysis of a run or a generator bundle")
    p.add_argument("input", nargs="?", default="-", help="instance or bundle JSON, - for stdin")
    _add_class_args(p)
    p.add_argument("--dot", help="write the shortcut tree in DOT format to this file")

    p = sub.add_parser("witness", help="laminar witness of the solver's cover")
    p.add_argument("instance", nargs="?", default="-")

    p = sub.add_parser("check-family", help="decide a structural property of a family")
    p.add_argument("family", nargs="?", default="-", help="family JSON file, or - for stdin")
    p.add_argument(
        "--property",
        required=True,
        choices=[*PROPERTIES, "crossing-number"],
    )

    p = sub.add_parser("gen", help="generate a tight construction or random instances")
    p.add_argument(
        "--kind",
        required=True,
        choices=[*_TIGHT_KINDS, "gamma", "sparse", "uncrossable"],
    )
    p.add_argument("--leaves", type=int, help="gadget count for the tight kinds (a power of two, at least 2)")
    p.add_argument("--beta", type=int, help="group size for kind tight-beta (a power of two, at most --leaves)")
    # The random kinds' options default to None, so that a tight kind can
    # refuse them; `_cmd_gen` fills in the defaults the help names.
    p.add_argument("--count", type=int, help="number of random instances (default 1)")
    p.add_argument("--seed", type=int, help="seed of the random instances (default 0)")
    p.add_argument("--n", type=int, help="universe size for random instances")
    p.add_argument("--jobs", type=int, help="most workers for random batches, capped by --count and CPUs (default 1)")
    return parser


def _cmd_solve(args) -> int:
    inst = instance_from_json(_read_json(args.instance))
    trace = solve(inst.graph, inst.oracle())
    _emit(trace_to_json(inst.graph, trace, instance_digest(inst)))
    return 0


def _cmd_exact(args) -> int:
    inst = instance_from_json(_read_json(args.instance))
    opt, solution = brute_force_opt(inst.graph, inst.oracle())
    _emit(
        {
            "version": SCHEMA_VERSION,
            "instance_digest": instance_digest(inst),
            "opt_cost": [opt.numerator, opt.denominator],
            "solution": list(solution),
        }
    )
    return 0


def _cmd_certify(args) -> int:
    inst = instance_from_json(_read_json(args.instance))
    beta = args.beta
    if beta is None and args.family_class == "beta" and isinstance(inst.family, CapGraph):
        beta = beta_bound(inst.family)  # a small-cut family's crossing number is at most this
    guarantee_factor(args.family_class, beta)  # refuses a bad pair before any solving
    oracle = inst.oracle()
    digest = instance_digest(inst)
    if args.trace:
        trace = trace_from_json(_read_json(args.trace), inst.graph, digest)
    else:
        trace = solve(inst.graph, oracle)
    opt = brute_force_opt(inst.graph, oracle)[0] if args.with_opt else None
    cert = certify(
        inst.graph,
        oracle,
        trace,
        args.family_class,
        beta=beta,
        opt=opt,
        instance_digest=digest,
    )
    _emit(certificate_to_json(cert))
    return 0 if cert.verdict else 1


def _cmd_analyze(args) -> int:
    doc = _read_json(args.input)
    bundle = isinstance(doc, dict) and "witness" in doc
    beta = args.beta
    if bundle and beta is None and args.family_class == "beta":
        beta = doc.get("beta")  # a class-beta bundle carries its crossing number
    guarantee_factor(args.family_class, beta)
    if bundle:
        graph, fam, witness, cores = bundle_parts_from_json(doc)
        tree = build_tree(
            graph.n, [(i, graph.pair(i)) for i in range(len(graph.edges))], witness, cores
        )
        report = verify_bounds(tree, args.family_class, beta)
        if args.dot:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(emit_dot(tree))
        _emit(
            {
                "version": SCHEMA_VERSION,
                "mode": "bundle",
                "family_class": args.family_class,
                "beta": beta,
                "ok": report.ok,
                "report": bound_report_to_json(report),
            }
        )
        return 0 if report.ok else 1
    if args.dot:
        raise SchemaError("--dot applies to bundle input only, not to an instance")
    inst = instance_from_json(doc)
    trace = solve(inst.graph, inst.oracle())
    report = analyze_trace(inst.graph, as_explicit_family(inst.family), trace, args.family_class, beta)
    out = analysis_to_json(report)
    out["mode"] = "trace"
    _emit(out)
    return 0 if report.ok else 1


def _cmd_witness(args) -> int:
    inst = instance_from_json(_read_json(args.instance))
    trace = solve(inst.graph, inst.oracle())
    fam = as_explicit_family(inst.family)
    pairs = [inst.graph.pair(e) for e in trace.solution]
    assignment = laminar_witness(fam, pairs)
    _emit(
        {
            "version": SCHEMA_VERSION,
            "instance_digest": instance_digest(inst),
            "solution": list(trace.solution),
            "witness": [nodeset_to_json(w) for w in assignment],
        }
    )
    return 0


def _cmd_check_family(args) -> int:
    fam = as_explicit_family(family_spec_from_json(_read_json(args.family)))
    if args.property == "crossing-number":
        _emit({"version": SCHEMA_VERSION, "crossing_number": crossing_number(fam), "mode": "exhaustive"})
        return 0
    result = check_family(fam, args.property)
    _emit(check_result_to_json(result))
    return 0 if result.holds else 1


def _gen_random_one(kind: str, seed: int, index: int, n: int | None) -> dict:
    graph, fam = random_instance(kind, instance_rng(seed, index), n)
    return instance_to_json(Instance(graph, fam))


def _cmd_gen(args) -> int:
    if args.kind in _TIGHT_KINDS:
        for name in ("n", "count", "seed", "jobs"):
            if getattr(args, name) is not None:
                raise SchemaError(f"--{name} applies to the random kinds only, not to the tight kinds")
        if args.leaves is None:
            raise SchemaError("--leaves is required for the tight kinds")
        if (args.beta is None) == (args.kind == "tight-beta"):
            raise SchemaError("--beta is required for kind tight-beta, and applies to it only")
        extra = () if args.beta is None else (args.beta,)
        _emit(bundle_to_json(_TIGHT_KINDS[args.kind](args.leaves, *extra)))
        return 0
    if args.leaves is not None or args.beta is not None:
        raise SchemaError("--leaves and --beta apply to the tight kinds only, not to the random kinds")
    for name, default in (("count", 1), ("seed", 0), ("jobs", 1)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.jobs < 1:
        raise SchemaError("--jobs must be at least 1")
    if args.count < 1:
        raise SchemaError("--count must be at least 1")
    # A pool may start all its workers at the first submit (CPython 3.11
    # with fork does), so --jobs is only an upper bound.
    workers = min(args.jobs, args.count, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            docs = list(
                pool.map(
                    _gen_random_one,
                    [args.kind] * args.count,
                    [args.seed] * args.count,
                    range(args.count),
                    [args.n] * args.count,
                )
            )
    else:
        docs = [_gen_random_one(args.kind, args.seed, i, args.n) for i in range(args.count)]
    _emit(
        {
            "version": SCHEMA_VERSION,
            "kind": args.kind,
            "seed": args.seed,
            "instances": docs,
        }
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "certify": _cmd_certify,
    "analyze": _cmd_analyze,
    "witness": _cmd_witness,
    "check-family": _cmd_check_family,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Not an input error: stop writing, and point stdout at devnull so
        # that the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (OSError, TreeInvariantError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        _emit(
            {
                "version": SCHEMA_VERSION,
                "error": "infeasible",
                "core": list(exc.core.members()),
            }
        )
        return 1
    except (CoverNotMinimalError, NoLaminarWitnessError, OracleInvariantError) as exc:
        _emit({"version": SCHEMA_VERSION, "error": "finding", "detail": str(exc)})
        return 1
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a crash is never a negative verdict
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
