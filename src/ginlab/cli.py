"""Command-line front end.

Exit codes: 0 success, 1 usage or parse error, 2 computation failure
(genericity not reached or degree cap hit), 3 theorem-check or oracle
violation, or an implementation fault (a proved invariant failed).  All
randomness flows from --seed (default: the GINLAB_SEED environment
variable, else 0), so identical invocations are byte-identical.
"""

import argparse
import json
import os
import sys

from .annihilators import annihilators_from_gin, generic_annihilators_direct
from .betti import IDEAL, QUOTIENT, betti_table
from .corpus import CorpusSpec, generate, ideal_digest
from .groebner import PRIME_BOUND, gin
from .ideals import ComputationLimit, ImplementationFault, lex_ideal
from .oracles import oracle_equivalences
from .parsing import ParseError, parse_ideal, render_ideal
from .rigidity import (
    STATEMENTS,
    RigidityContext,
    TheoremViolationError,
    battery,
    sweep,
)
from .rings import EXT, POLY, GenericityError, render_monomial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_seed():
    try:
        return int(os.environ.get("GINLAB_SEED") or 0)
    except ValueError:
        raise _UsageError("GINLAB_SEED must be an integer")


def _load_ideal(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    return parse_ideal(text)


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _gin_json(ring, J, cert):
    return {
        "ring": {"kind": ring.kind, "n": ring.n},
        "generators": [render_monomial(ring, m) for m in J.gens],
        "certificate": {
            "order": cert.order,
            "seed": cert.seed,
            "coeff_bound": cert.coeff_bound,
            "trials": cert.trials,
            "escalations": cert.escalations,
            "strongly_stable": cert.strongly_stable,
            "matrices": [
                {"prime": p, "rows": [list(row) for row in rows]}
                for p, rows in cert.matrices
            ],
        },
    }


def cmd_betti(args):
    ideal = _load_ideal(args.file)
    table = betti_table(ideal, args.seed, args.imax).as_convention(args.convention)
    if args.json:
        _emit_json(table.to_json())
    else:
        print(table.render())
    return EXIT_OK


def cmd_gin(args):
    ideal = _load_ideal(args.file)
    J, cert = gin(
        ideal,
        order=args.order,
        seed=args.seed,
        coeff_bound=args.coeff_bound,
        trials=args.trials,
    )
    if args.json:
        _emit_json(_gin_json(ideal.ring, J, cert))
    else:
        for m in J.gens:
            print(render_monomial(ideal.ring, m))
        print("--- certificate ---")
        print(cert.describe())
    return EXIT_OK


def cmd_alpha(args):
    ideal = _load_ideal(args.file)
    direct = generic_annihilators_direct(ideal, seed=args.seed)
    from_gin = annihilators_from_gin(ideal, seed=args.seed)
    agree = direct.same_numbers(from_gin)
    if args.json:
        payload = direct.to_json()
        payload["routes_agree"] = agree
        _emit_json(payload)
    else:
        print(direct.render())
        print(f"routes agree (direct vs gin): {'yes' if agree else 'NO'}")
    return EXIT_OK if agree else EXIT_VIOLATION


def cmd_cancel(args):
    ideal = _load_ideal(args.file)
    table = RigidityContext(ideal, seed=args.seed).cancellation
    if args.json:
        _emit_json(table.to_json())
    else:
        print(table.render())
    return EXIT_OK


def cmd_lex(args):
    ideal = _load_ideal(args.file)
    L = lex_ideal(ideal)
    if args.json:
        _emit_json(
            {
                "ring": {"kind": ideal.ring.kind, "n": ideal.ring.n},
                "generators": [render_monomial(ideal.ring, m) for m in L.gens],
            }
        )
    else:
        for m in L.gens:
            print(render_monomial(ideal.ring, m))
    return EXIT_OK


def cmd_check(args):
    fixed = {
        axis: getattr(args, axis)
        for axis in ("i", "k", "q", "target")
        if getattr(args, axis) is not None
    }
    if args.all and args.statement is not None:
        raise _UsageError("--all and --statement exclude each other")
    if args.statement is None and fixed:
        pins = ", ".join(f"--{axis}" for axis in fixed)
        raise _UsageError(
            f"the whole battery takes no {pins}; pin with --statement NAME"
        )
    name = args.statement
    if name is not None and name not in STATEMENTS:
        raise _UsageError(
            f"unknown statement {name!r}; known: {', '.join(sorted(STATEMENTS))}"
        )
    ideal = _load_ideal(args.file)
    ctx = RigidityContext(ideal, seed=args.seed, i_max=args.imax)
    if name is None:
        reports = battery(ctx)
    else:
        check = STATEMENTS[name].check
        reports = [check(ctx, **params) for params in sweep(ctx, name, fixed)]
    violated = [r for r in reports if not r.holds]
    if args.json:
        _emit_json([r.to_json() for r in reports])
    else:
        for r in reports:
            tag = "holds" if r.holds else "VIOLATED"
            extra = " (vacuous)" if r.vacuous else ""
            print(f"{r.statement} {r.params}: {tag}{extra}")
        print(f"{len(reports)} checks, {len(violated)} violations")
    return EXIT_VIOLATION if violated else EXIT_OK


def _corpus_job(payload):
    """Battery plus oracle checks for one rendered ideal (worker-safe)."""
    text, seed = payload
    ideal = parse_ideal(text)
    reports = battery(ideal, seed=seed)
    oracles = oracle_equivalences(ideal, seed=seed)
    bad = sum(1 for r in reports if not r.holds) + sum(
        1 for o in oracles if not o.ok
    )
    return len(reports) + len(oracles), bad


def cmd_corpus(args):
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
        if len(weights) != 3 or sum(weights) <= 0 or min(weights) < 0:
            raise ValueError
    except ValueError:
        raise _UsageError("--weights expects three nonnegative integers m,b,d")
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise _UsageError(f"--workers expects an integer in 1..{cpus}")
    spec = CorpusSpec(
        kind=args.kind,
        n=args.n,
        max_degree=args.max_degree,
        min_generators=args.min_gens,
        max_generators=args.max_gens,
        weights=weights,
        count=args.count,
        seed=args.seed,
        max_complexity=args.max_complexity,
    )
    ideals = generate(spec)
    rows = []
    any_violation = False
    if args.check_all:
        jobs = [(render_ideal(ideal), args.seed) for ideal in ideals]
        workers = min(args.workers, len(jobs))
        if workers > 1:
            from multiprocessing import Pool

            with Pool(workers) as pool:
                results = pool.map(_corpus_job, jobs)
        else:
            results = [_corpus_job(j) for j in jobs]
        for ideal, (checks, bad) in zip(ideals, results):
            digest = ideal_digest(ideal)
            any_violation = any_violation or bad > 0
            rows.append(
                (
                    digest,
                    f"{digest}  checks={checks}  "
                    + ("OK" if not bad else f"VIOLATIONS={bad}"),
                )
            )
    else:
        for ideal in ideals:
            digest = ideal_digest(ideal)
            gens = ", ".join(str(g) for g in ideal.generators)
            rows.append((digest, f"{digest}  ({gens})"))
    rows.sort()
    for _, line in rows:
        print(line)
    if args.check_all:
        print(
            f"{len(ideals)} ideals checked: "
            + ("all statements hold" if not any_violation else "VIOLATIONS FOUND")
        )
    return EXIT_VIOLATION if any_violation else EXIT_OK


def build_parser():
    parser = _Parser(prog="ginlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, imax=True):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", action="store_true")
        if imax:
            p.add_argument(
                "--imax",
                type=int,
                default=None,
                help="homological cutoff for exterior tables (default n+3)",
            )

    p = sub.add_parser("betti", help="graded Betti table of R/I")
    p.add_argument("file")
    p.add_argument(
        "--convention", choices=[IDEAL, QUOTIENT], default=QUOTIENT
    )
    common(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("gin", help="generic initial ideal with certificate")
    p.add_argument("file")
    p.add_argument(
        "--order", choices=["degrevlex", "deglex", "lex"], default="degrevlex"
    )
    p.add_argument(
        "--coeff-bound",
        type=int,
        default=PRIME_BOUND,
        help="B, at least 2: the trials of round e run mod one prime drawn "
        "from [B*2^e, B*2^(e+1)) (default 2^60)",
    )
    p.add_argument("--trials", type=int, default=2)
    common(p, imax=False)
    p.set_defaults(fn=cmd_gin)

    p = sub.add_parser("alpha", help="generic annihilator numbers")
    p.add_argument("file")
    common(p, imax=False)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("cancel", help="cancellation numbers")
    p.add_argument("file")
    common(p, imax=False)
    p.set_defaults(fn=cmd_cancel)

    p = sub.add_parser("lex", help="lexsegment ideal with the same Hilbert function")
    p.add_argument("file")
    common(p, imax=False)
    p.set_defaults(fn=cmd_lex)

    p = sub.add_parser("check", help="verify rigidity statements")
    p.add_argument("file")
    p.add_argument("--statement", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--target", default=None)
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("corpus", help="generate a random corpus, optionally check it")
    p.add_argument("--kind", choices=[POLY, EXT], default=POLY)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--min-gens", type=int, default=1)
    p.add_argument("--max-gens", type=int, default=6)
    p.add_argument("--max-complexity", type=int, default=6)
    p.add_argument(
        "--weights",
        default="6,3,1",
        help="monomial,binomial,dense generator mix weights",
    )
    p.add_argument("--check-all", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    common(p, imax=False)
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        if getattr(args, "imax", None) is not None and args.imax < 0:
            raise _UsageError("i_max must be nonnegative")
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GenericityError, ComputationLimit) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except TheoremViolationError as exc:
        print(f"statement violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ImplementationFault as exc:
        print(f"implementation fault: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
