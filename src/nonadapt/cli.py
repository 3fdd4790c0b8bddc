"""Batch command-line harness for reproducible experiments.

Subcommands tie the simulator, the bound checks, and the learning pipeline
into machine-readable runs.  Every output records the seed; identical
configurations produce byte-identical output.  Exit codes: 0 pass, 1 bound
or plan failure, 2 validation error, 3 I/O or parse error.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .algorithms import (
    build_hadamard_instance,
    build_parity_algorithm,
    build_subset_state,
    decision_measurement,
    recovery_success_probability,
    run_algorithm,
    subset_outcome_distribution,
)
from .boolfn import build_function, load_function
from .bounds import (
    bound_report,
    error_lower_bound,
    error_profile,
    helstrom_error,
    query_lower_bound,
)
from .errors import (
    BoundViolation,
    ContractViolation,
    InputOutsideClass,
    ParseError,
    ValidationError,
    render_json,
)
from .learning import (
    AmplitudeProfile,
    amplitude_profile,
    build_classical_plan,
    check_pairwise_overlaps,
    full_concept_class,
    load_concept_class,
    min_distinguishing_set,
    plan_to_dict,
    sample_index_set,
    save_plan,
)
from .qstate import ATOL, OracleString, load_state
from . import rng

EXIT_PASS = 0
EXIT_BOUND_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
# extract-set's refusal limit on --k times --trials: a draw costs about 25 bytes, a trial
# about 0.1 ms and 0.5 KB (2-vCPU Xeon), so k = 1 at the limit takes about 30 s and 160 MB
MAX_EXTRACT_DRAWS = 1 << 18


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def emit(args: argparse.Namespace, text: str) -> None:
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(value, flag: str):
    if value is None:
        raise ContractViolation(f"{flag} is required for this subcommand")
    return value


def _json_only(args: argparse.Namespace) -> None:
    if args.fmt != "json":
        raise ValidationError(f"{args.command} emits json only; drop --format csv")


# --- subcommands -------------------------------------------------------------


def cmd_verify_bound(args: argparse.Namespace) -> int:
    """Check the query lower bound for a serialized state against a truth table."""
    _json_only(args)
    state_path = _require(args.in_path, "--in (state file)")
    table_path = _require(args.table, "--table (truth-table file)")
    psi = load_state(state_path)
    f = load_function(table_path)
    report = bound_report(psi, f)
    payload = {
        "command": "verify-bound",
        "run_id": f"verify-bound-{Path(state_path).stem}-{Path(table_path).stem}-seed{args.seed}",
        "seed": args.seed,
        **report,
    }
    emit(args, render_json(payload))
    return EXIT_PASS if report["pass"] else EXIT_BOUND_FAILURE


def cmd_vandam(args: argparse.Namespace) -> int:
    """Sweep the uniform-subset learner and compare against the closed form."""
    n = _require(args.n, "--n")
    if n < 1:
        raise ContractViolation(f"--n must be >= 1, got {n}")
    if n > 16:
        raise ValidationError(f"n = {n} enumerates 2^{n} subsets; refusing beyond n = 16")
    if args.k is not None and not 0 <= args.k <= n:
        raise ContractViolation(f"--k must be in [0, {n}], got {args.k}")
    ks = [args.k] if args.k is not None else range(n + 1)
    rows = []
    for k in ks:
        gen = rng.stream(args.seed, "vandam", f"k={k}")
        x = OracleString.from_int(n, int(gen.integers(0, 1 << n)))
        sim = float(subset_outcome_distribution(n, k, x)[x.to_int()])
        closed = recovery_success_probability(n, k)
        rows.append(
            {"k": k, "success": sim, "closed_form": closed, "match": abs(sim - closed) <= ATOL}
        )

    suffix = f"-k{args.k}" if args.k is not None else ""
    payload = {
        "command": "vandam",
        "run_id": f"vandam-n{n}{suffix}-seed{args.seed}",
        "n": n,
        "seed": args.seed,
        "rows": rows,
    }
    if args.fmt == "csv":
        emit(args, render_csv(["k", "success", "closed_form", "match"], rows))
    else:
        emit(args, render_json(payload))
    return EXIT_PASS if all(r["match"] for r in rows) else EXIT_BOUND_FAILURE


def cmd_parity(args: argparse.Namespace) -> int:
    """Run the pairwise-parity evaluator and verify exactness and tightness."""
    _json_only(args)
    n = _require(args.n, "--n")
    alg = build_parity_algorithm(n)
    f = build_function("parity", n)
    errors = error_profile(alg.psi, decision_measurement(alg), f)
    wce = float(errors.max())
    eps_lb = error_lower_bound(alg.psi, f)
    rhs = query_lower_bound(n, min(wce, 0.5))
    ok = wce <= ATOL and alg.k + ATOL >= rhs
    payload = {
        "command": "parity",
        "run_id": f"parity-n{n}-seed{args.seed}",
        "seed": args.seed,
        "name": alg.name,
        "n": n,
        "k": alg.k,
        "success_min": 1.0 - wce,
        "success_max": 1.0 - float(errors.min()),
        "worst_case_error": wce,
        "eps_lower_bound": eps_lb,
        "theorem1_rhs": rhs,
        "pass": ok,
    }
    emit(args, render_json(payload))
    return EXIT_PASS if ok else EXIT_BOUND_FAILURE


def cmd_bv(args: argparse.Namespace) -> int:
    """Run the one-query subset-parity learner over its whole concept class."""
    _json_only(args)
    b = _require(args.b, "--b")
    concepts, alg = build_hadamard_instance(b)
    success = [
        run_algorithm(alg, x).get(s, 0.0) for s, x in enumerate(concepts.concepts)
    ]
    # the most overlapping pair sets the floor; at eps = 1/2 the overlap check cannot fail
    w = check_pairwise_overlaps(amplitude_profile(alg.psi), concepts, 0.5).worst()
    floor = helstrom_error(min(math.sqrt(w.overlap_sq), 1.0))
    min_size = len(min_distinguishing_set(concepts))
    ok = min(success) >= 1.0 - ATOL
    payload = {
        "command": "bv",
        "run_id": f"bv-b{b}-seed{args.seed}",
        "seed": args.seed,
        "name": alg.name,
        "b": b,
        "n": alg.n,
        "k": alg.k,
        "concepts": concepts.m,
        "success_min": min(success),
        "success_max": max(success),
        "eps_lower_bound": floor,
        "min_distinguishing_size": min_size,
        "pass": ok,
    }
    emit(args, render_json(payload))
    return EXIT_PASS if ok else EXIT_BOUND_FAILURE


def _resolve_learner(args: argparse.Namespace):
    """Pick the query state and default concept class for the learn command."""
    if args.learner == "bv":
        b = _require(args.b, "--b")
        concepts, alg = build_hadamard_instance(b)
        return alg.psi, concepts, f"bv-b{b}"
    if args.learner == "vandam":
        n = _require(args.n, "--n")
        k = _require(args.k, "--k")
        return build_subset_state(n, k), full_concept_class(n), f"vandam-n{n}-k{k}"
    if args.learner == "state":
        path = _require(args.in_path, "--in (state file)")
        return load_state(path), None, f"state-{Path(path).stem}"
    raise ContractViolation(f"unknown learner {args.learner!r}")


def cmd_learn(args: argparse.Namespace) -> int:
    """Derandomize a quantum learner into a classical query plan, then verify it."""
    _json_only(args)
    psi, default_class, tag = _resolve_learner(args)
    if args.concepts is not None:
        concepts = load_concept_class(args.concepts)
    elif default_class is not None:
        concepts = default_class
    else:
        raise ContractViolation("--concepts is required when learning from a state file")

    result = build_classical_plan(psi, concepts, args.eps)
    plan = result.plan

    # decode every concept from its own bits at the plan's positions, independently of
    # how the plan was built; a pattern the decoder lacks raises InputOutsideClass
    observed = concepts.bits[:, [q - 1 for q in plan.base_queries]]
    verified = plan.decode(observed).tolist() == list(range(concepts.m))
    try:
        exact_min = len(min_distinguishing_set(concepts))
    except ValidationError:  # beyond n = 24 or the search budget
        exact_min = None
    # every pair is within the bound, or build_classical_plan raised: print the binding one
    margins, pairs_checked, report = None, 0, result.overlap_report
    if report is not None:
        worst = report.worst()
        margins = [{"i": worst.i, "j": worst.j, "overlap_sq": worst.overlap_sq,
                    "margin": report.bound - worst.overlap_sq, "ok": worst.ok}]
        pairs_checked = len(report.pairs)

    payload = {
        "command": "learn",
        "run_id": f"learn-{tag}-seed{args.seed}",
        "seed": args.seed,
        "base_queries": list(plan.base_queries),
        "exact_min": exact_min,
        "overlap_bound": None if report is None else report.bound,
        "overlap_margins": margins,
        "pairs_checked": pairs_checked,
        "verified_all_concepts": verified,
        **result.audit,
    }
    if args.out_path:
        save_plan(plan, args.out_path)
        payload["plan_path"] = args.out_path
    else:
        payload["plan"] = plan_to_dict(plan)
    sys.stdout.write(render_json(payload))
    return EXIT_PASS if verified else EXIT_BOUND_FAILURE


def cmd_extract_set(args: argparse.Namespace) -> int:
    """Sample distinguishing sets from an amplitude profile over repeated trials."""
    concepts_path = _require(args.concepts, "--concepts")
    k_draws = _require(args.k, "--k (number of draws)")
    concepts = load_concept_class(concepts_path)
    if args.in_path is not None:
        profile = amplitude_profile(load_state(args.in_path))
    else:
        profile = AmplitudeProfile.uniform(concepts.n + 1)
    if args.trials < 1:
        raise ContractViolation(f"--trials must be >= 1, got {args.trials}")
    if k_draws * args.trials > MAX_EXTRACT_DRAWS:
        raise ValidationError(
            f"--k {k_draws} times --trials {args.trials} is {k_draws * args.trials} draws; "
            f"refusing beyond {MAX_EXTRACT_DRAWS}"
        )

    results = [
        sample_index_set(
            profile, concepts, k_draws, rng.stream(args.seed, "extract-set", f"trial={t}")
        )
        for t in range(args.trials)
    ]
    failures = sum(1 for r in results if not r.distinguishing)
    rows = [
        {
            "trial": t,
            "distinguishing": r.distinguishing,
            "set_size": len(r.index_set),
            "index_set": "|".join(str(i) for i in r.index_set),
        }
        for t, r in enumerate(results)
    ]
    payload = {
        "command": "extract-set",
        "run_id": f"extract-set-{Path(concepts_path).stem}-k{k_draws}-seed{args.seed}",
        "seed": args.seed,
        "n": concepts.n,
        "m": concepts.m,
        "k_draws": k_draws,
        "trials": args.trials,
        "failures": failures,
        "failure_rate": failures / args.trials,
    }
    if args.trials <= 16:
        payload["results"] = [
            {
                "draws": list(r.draws),
                "index_set": list(r.index_set),
                "distinguishing": r.distinguishing,
            }
            for r in results
        ]
    if args.fmt == "csv":
        emit(args, render_csv(["trial", "distinguishing", "set_size", "index_set"], rows))
    else:
        emit(args, render_json(payload))
    return EXIT_PASS


COMMANDS = {
    "verify-bound": cmd_verify_bound,
    "vandam": cmd_vandam,
    "parity": cmd_parity,
    "bv": cmd_bv,
    "learn": cmd_learn,
    "extract-set": cmd_extract_set,
}


@functools.cache  # built once per process: parse_args keeps no state on the parser
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="number of input bits")
    common.add_argument("--k", type=int, help="query count / subset size / draw count")
    common.add_argument("--eps", type=float, default=0.0, help="error rate in [0, 1/2)")
    common.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    common.add_argument("--in", dest="in_path", help="input path (state file)")
    common.add_argument("--out", dest="out_path", help="output path (default stdout)")
    common.add_argument(
        "--format", dest="fmt", choices=["json", "csv"], default="json",
        help="output format (csv only for tabular subcommands)",
    )

    parser = argparse.ArgumentParser(
        prog="nonadapt",
        description="Nonadaptive quantum query algorithms: simulation, bounds, learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bound", parents=[common],
                       help="check the query lower bound for a state against a truth table")
    p.add_argument("--table", help="truth-table file (line 1: n, line 2: 2^n bits)")

    sub.add_parser("vandam", parents=[common],
                   help="uniform-subset learner sweep vs the closed-form success rate")

    sub.add_parser("parity", parents=[common],
                   help="pairwise-parity evaluator: exactness and bound tightness")

    p = sub.add_parser("bv", parents=[common],
                       help="one-query subset-parity learner over its concept class")
    p.add_argument("--b", type=int, help="instance size: n = 2^b - 1")

    p = sub.add_parser("learn", parents=[common],
                       help="derandomize a quantum learner into a classical query plan")
    p.add_argument("--b", type=int, help="instance size for the bv learner")
    p.add_argument("--learner", choices=["bv", "vandam", "state"], default="state")
    p.add_argument("--concepts", help="concept-class file (default: learner's own class)")

    p = sub.add_parser("extract-set", parents=[common],
                       help="sample distinguishing sets from an amplitude profile")
    p.add_argument("--concepts", help="concept-class file", required=True)
    p.add_argument("--trials", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rng.check_seed(args.seed)
        return COMMANDS[args.command](args)
    except BoundViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND_FAILURE
    except (ContractViolation, ValidationError, InputOutsideClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
