"""Command-line harness: instance generation, pipelines, audits, reports.

Subcommands: gen, run {greedy,cg,revenue,coverage}, oracle, certify, report;
each takes only the flags it reads. Exit codes: 0 success, 2 when a guarantee
assertion or report re-validation fails (CI contract), 1 on errors.

Reports are JSON with sorted keys and deterministic float repr, so a fixed
--seed reproduces byte-identical files. Wall-clock timings never enter
reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

from . import __version__, core, coverage, engagement, generators, oracle, policy, revenue
from .errors import InfeasibleError, SeqsubError, ValidationError
from .numerics import SUM_TOL, TOL
from .util import dumps, json_field, read_json


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are errors, not guarantee failures
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    if not text.isdigit():
        raise ValidationError(f"need --seed >= 0, got {text}")
    return int(text)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, list):
        if all(not isinstance(v, (dict, list)) for v in obj):
            yield prefix.rstrip("."), ";".join(str(v) for v in obj)
        else:
            for i, v in enumerate(obj):
                yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps(report)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for k, v in _flatten(report):
            writer.writerow([k, v])
        return buf.getvalue()
    lines = []
    rows = list(_flatten(report))
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        lines.append(f"{k:<{width}}  {v}")
    return "\n".join(lines) + "\n"


def _ranking_fields(inst: core.Instance, order: core.Permutation, opt_order) -> dict:
    """The fields of a `run greedy` or `run cg` report for `order`, with the
    optimum that `opt_order` reaches when it is given."""
    out = {
        "n": inst.n,
        "permutation": core.order_to_external(order),
        "engagement": core.engagement(inst, order),
        "revenue": core.revenue(inst, order),
    }
    if opt_order is not None:
        out["opt_engagement"] = opt = core.engagement(inst, opt_order)
        out["opt_permutation"] = core.order_to_external(opt_order)
        if opt > 0:
            out["engagement_ratio"] = out["engagement"] / opt
    return out


def _opt_order(inst: core.Instance):
    """The oracle's engagement-optimal order, or None above its size cap."""
    capped = inst.n > oracle.MAX_BRUTE_N
    return None if capped else oracle.brute_force_engagement_opt(inst).best_witness


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise ValidationError(f"gen: need --n >= 1, got {args.n}")
    if args.kind == "coverage":
        ci = generators.random_coverage_instance(args.n, args.seed)
        coverage.save_coverage(ci, args.out)
        print(f"wrote coverage instance n={args.n} to {args.out}")
        return 0
    inst = generators.random_instance(
        args.kind, args.n, args.seed, full_mass=True, with_payments=True
    )
    core.save_instance(inst, args.out)
    print(f"wrote {args.kind} instance n={args.n} to {args.out}")
    return 0


def _run_greedy(args) -> tuple[dict, str, int]:
    inst = core.load_instance(args.instance)
    report = _ranking_fields(inst, engagement.greedy_rank(inst), _opt_order(inst))
    summary = f"greedy: permutation {report['permutation']} engagement {report['engagement']:.6f}"
    if "engagement_ratio" in report:
        summary += f" (ratio {report['engagement_ratio']:.4f} of optimum)"
    return report, summary, 0


def _run_cg(args) -> tuple[dict, str, int]:
    inst = core.load_instance(args.instance)
    res = engagement.rank_cg(inst, steps=args.steps, samples=args.samples, seed=args.seed)
    report = {
        **{k: v for k, v in vars(res).items() if k != "order"},
        **_ranking_fields(inst, res.order, _opt_order(inst)),
        "seed": args.seed,
        "steps": args.steps,
        "samples": args.samples,
    }
    summary = (
        f"cg: permutation {report['permutation']} engagement {res.engagement:.6f}"
        f" (rounded lifted value {res.lifted_value:.6f})"
    )
    return report, summary, 0


def _instance(args) -> core.Instance:
    """The --instance file, its engagement floor T overridden by --threshold if given."""
    inst = core.load_instance(args.instance)
    return inst if args.threshold is None else inst.with_threshold(args.threshold)


def _optimum(inst: core.Instance, order: core.Permutation, value) -> dict:
    """An oracle report's optimum: `order` and its value(inst, order)."""
    return {"value": value(inst, order), "permutation": core.order_to_external(order)}


def _run_oracle(args) -> tuple[dict, str, int]:
    inst = _instance(args)
    eng = oracle.brute_force_engagement_opt(inst)
    report = {"n": inst.n, "threshold": inst.T}
    report["engagement_opt"] = {
        **_optimum(inst, eng.best_witness, core.engagement), "enumerated": eng.enumerated_count
    }
    try:
        rev = oracle.brute_force_revenue_opt(inst)
        report["revenue_opt"] = {
            **_optimum(inst, rev.best_witness, core.revenue), "enumerated": rev.enumerated_count
        }
        summary = (
            f"oracle: engagement OPT {eng.best_value:.6f}, "
            f"revenue OPT {rev.best_value:.6f} at {report['revenue_opt']['permutation']}"
        )
    except InfeasibleError as exc:
        report["revenue_opt"] = {"infeasible": str(exc)}
        summary = f"oracle: engagement OPT {eng.best_value:.6f}; revenue floor infeasible"
    return report, summary, 0


def _trial(t: revenue.TrialResult) -> dict:
    return {
        "permutation": core.order_to_external(t.order),
        "engagement": t.engagement,
        "revenue": t.revenue,
    }


def _revenue_fields(inst: core.Instance, rep: revenue.BiCriteriaReport) -> dict:
    """A revenue report's fields: the aggregates of `rep` (an infinite float,
    a ratio whose LP value or floor is 0, reads "inf"), n and its trials."""
    # one entry per distinct order, shared by its trials: `dumps` writes it once
    entries = {o: _trial(t) for o, t in {t.order: t for t in rep.trials}.items()}
    return {
        **{k: "inf" if v == math.inf else v for k, v in vars(rep).items() if k != "trials"},
        "trials": len(rep.trials),
        "best": _trial(rep.best),
        "n": inst.n,
        "per_seed": [entries[t.order] for t in rep.trials],
    }


def _run_revenue(args) -> tuple[dict, str, int]:
    inst = _instance(args)
    rep = revenue.run_bicriteria(inst, args.trials, factor=args.factor, seed=args.seed)
    report = {**_revenue_fields(inst, rep), "seed": args.seed}
    ok = rep.guarantees_ok()
    summary = (
        f"revenue: LP {rep.lp_value:.6f}, mean revenue {rep.mean_revenue:.6f}"
        f" (alpha {rep.alpha_ratio:.4f}), mean engagement {rep.mean_engagement:.6f}"
        f" -> guarantees {'PASS' if ok else 'FAIL'}"
    )
    return report, summary, 0 if ok else 2


def _coverage_fields(ci: coverage.CoverageInstance, order: core.Permutation) -> dict:
    clicks = coverage.clicks(ci, order)
    return {"n": ci.n, "permutation": core.order_to_external(order), "clicks": clicks}


def _run_coverage(args) -> tuple[dict, str, int]:
    ci = coverage.load_coverage(args.instance)
    best = coverage.coverage_best_of(ci, trials=args.trials, seed=args.seed)
    report = {
        **_coverage_fields(ci, best.order),
        "seed": args.seed,
        "trials": args.trials,
        "lp_value": best.lp_value,
    }
    summary = (
        f"coverage: LP {best.lp_value:.6f}, best clicks {report['clicks']}"
        f" at {report['permutation']}"
    )
    return report, summary, 0


def _certify_fields(pv: policy.PolicyVector) -> tuple[dict, policy.ImplementabilityReport]:
    """A certify report's fields, from a fresh certification of `pv`, and that certification."""
    result = policy.check_implementable(pv)
    return {
        "n": pv.n,
        "feasible": result.feasible,
        "failing_layer": result.failing_layer,
        "reason": result.reason,
        "layer_flows": [
            {"layer": c.layer, "flow": c.flow_value, "feasible": c.feasible}
            for c in result.certs
        ],
        "cut": [[layer, format(mask, "x")] for layer, mask in (result.cut_nodes or [])],
    }, result


def _run_certify(args) -> tuple[dict, str, int]:
    report, result = _certify_fields(policy.load_policy(args.instance))
    if result.feasible:
        summary = "certify: feasible (all layer flows = 1)"
    elif result.reason == "unnormalized":
        summary = f"certify: infeasible at layer {result.failing_layer} (unnormalized)"
    else:
        flow = result.certs[result.failing_layer - 1].flow_value
        summary = f"certify: infeasible at layer {result.failing_layer} (max-flow {flow:.6f})"
    return report, summary, 0


#: Each pipeline by its spelling: its runner; the flags it reads beside
#: --instance, --out and --format (any other flag is a usage error); and the
#: dotted keys of its report, beside algo and instance, that no builder
#: rebuilds (revenue's per_seed is compared trial by trial). `report` reads
#: those in a bound or not at all, and names any other key that the builder
#: does not rebuild as a mismatch.
_COMMANDS = {
    ("run", "greedy"): (_run_greedy, (), ()),
    ("run", "cg"): (_run_cg, ("--seed", "--steps", "--samples"), (
        "seed", "steps", "samples",
        "lifted_value", "fractional_estimate", "fractional_stderr", "rounded_size",
    )),
    ("run", "revenue"): (
        _run_revenue, ("--seed", "--trials", "--factor", "--threshold"), ("seed", "per_seed")
    ),
    ("run", "coverage"): (_run_coverage, ("--seed", "--trials"), ("seed", "trials", "lp_value")),
    ("oracle",): (_run_oracle, ("--threshold",), (
        "threshold", "engagement_opt.enumerated", "revenue_opt.enumerated",
        "revenue_opt.infeasible",
    )),
    ("certify",): (_run_certify, (), ()),
}

_FLAGS = {
    "--instance": {"required": True, "help": "input file (format depends on the command)"},
    "--seed": {"type": _seed, "default": 0},
    "--steps": {"type": int, "default": 40, "help": "continuous greedy steps"},
    "--samples": {"type": int, "default": 200, "help": "marginal samples per step"},
    "--trials": {"type": int, "default": 200, "help": "rounding trials"},
    "--factor": {"type": float, "default": 1.0, "help": "LP solution scale factor"},
    "--threshold": {"type": float, "default": None, "help": "override engagement floor T"},
    "--out": {"help": "write machine-readable report here"},
    "--format": {
        "choices": ("json", "csv", "pretty-table"),
        "default": "json",
        "help": "report format for --out (or stdout when no --out)",
    },
}


def _cmd_run(args) -> int:
    report, summary, code = args.runner(args)
    report = {"algo": args.algo, "instance": args.instance, **report}
    print(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_render(report, args.format))
    else:
        sys.stdout.write(_render(report, args.format))
    return code


def _agrees(claimed, expected) -> bool:
    """Floats agree within TOL; the rest ("inf", booleans, counts, orders, text) exactly."""
    if isinstance(expected, float):
        return type(claimed) in (int, float) and abs(claimed - expected) <= TOL
    return type(claimed) is type(expected) and claimed == expected


def _field(data, key: str, convert=float):
    return json_field(data, key, convert, "report")


def _cmd_report(args) -> int:
    """Re-validate a written report: rebuild its fields from the instance and
    its own orders (and a revenue report's LP value, factor and floor) with
    its command's builder, name each dotted key that disagrees or that is
    neither rebuilt nor informational, then check the bounds that no builder
    derives."""
    rep = read_json(args.report)
    algo = _field(rep, "algo", str)
    fields = {}
    failures = []
    if algo in ("greedy", "cg"):
        inst = core.load_instance(args.instance)
        order = _field(rep, "permutation", core.order_from_external)
        named = "opt_permutation" in rep or inst.n <= oracle.MAX_BRUTE_N  # see _opt_order
        opt_order = _field(rep, "opt_permutation", core.order_from_external) if named else None
        fields = _ranking_fields(inst, order, opt_order)
        if fields["engagement"] > fields.get("opt_engagement", math.inf) + TOL:
            failures.append("engagement above the optimum")
    elif algo == "oracle":
        inst = core.load_instance(args.instance)
        eng = _field(rep, "engagement_opt", dict)
        opt = _optimum(inst, _field(eng, "permutation", core.order_from_external), core.engagement)
        fields = {"n": inst.n, "engagement_opt": opt}
        floor = _field(rep, "threshold")
        rev = _field(rep, "revenue_opt", dict)
        if "permutation" in rev:
            rev_order = _field(rev, "permutation", core.order_from_external)
            fields["revenue_opt"] = _optimum(inst, rev_order, core.revenue)
            if not floor - TOL <= core.engagement(inst, rev_order) <= opt["value"] + TOL:
                failures.append("revenue optimum outside the engagement floor")
        elif floor - TOL <= opt["value"]:
            failures.append("engagement optimum reaches the floor called infeasible")
    elif algo == "revenue":
        inst = core.load_instance(args.instance)
        per_seed = _field(rep, "per_seed", list)
        orders = [_field(t, "permutation", core.order_from_external) for t in per_seed]
        trials = revenue.evaluate_trials(inst, orders)
        if trials:
            summary = revenue.summarize(
                trials, _field(rep, "lp_value"), _field(rep, "factor"), _field(rep, "threshold")
            )
            fields = _revenue_fields(inst, summary)
            for i, (c, t) in enumerate(zip(per_seed, fields.pop("per_seed"))):
                if not (_agrees(c.get("engagement"), t["engagement"])
                        and _agrees(c.get("revenue"), t["revenue"])):
                    failures.append(f"trial {i} mismatch")
        else:
            failures.append("no trials")
    elif algo == "coverage":
        ci = coverage.load_coverage(args.instance)
        fields = _coverage_fields(ci, _field(rep, "permutation", core.order_from_external))
        lp_value = _field(rep, "lp_value")
        if fields["clicks"] > lp_value + SUM_TOL:
            failures.append("clicks above the LP value")
        if lp_value > sum(map(bool, ci.interest_sets)) + SUM_TOL:  # y_k = 0 if P_k is empty
            failures.append("LP value above the number of types with an interest")
    elif algo == "certify":
        fields = _certify_fields(policy.load_policy(args.instance))[0]
    else:
        failures.append(f"unknown report algo {algo!r}")
    if fields:  # with nothing rebuilt (no trials, an unknown algo) nothing is compared
        info = {"algo", "instance"}.union(*(c[2] for s, c in _COMMANDS.items() if s[-1] == algo))
        rebuilt = dict(_flatten(fields))
        kept = {k: rep[k] for k in rep.keys() - info}  # per_seed is not flattened
        claimed = {k: v for k, v in _flatten(kept) if k not in info}
        ok = {k for k in rebuilt.keys() & claimed.keys() if _agrees(claimed[k], rebuilt[k])}
        failures[:0] = [f"{k} mismatch" for k in {**rebuilt, **claimed} if k not in ok]
    if failures:
        print("report INVALID: " + "; ".join(failures))
        return 2
    print(f"report validated: {args.report} ({algo})")
    return 0


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="seqsub", description=__doc__)
    parser.add_argument("--version", action="version", version=f"seqsub {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--kind", choices=generators.KINDS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", **_FLAGS["--seed"])
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run a pipeline").add_subparsers(dest="algo", required=True)
    for (*prefix, algo), (runner, flags, _) in _COMMANDS.items():
        p = (run if prefix else sub).add_parser(algo, help=f"run {algo} and write a report")
        for flag in ("--instance", *flags, "--out", "--format"):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=_cmd_run, algo=algo, runner=runner)

    rpt = sub.add_parser("report", help="re-validate a written report")
    rpt.add_argument("--report", required=True)
    rpt.add_argument("--instance", required=True)
    rpt.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # raised by our error() override and --version
        return int(exc.code or 0)
    except (SeqsubError, OSError) as exc:
        print(f"seqsub: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
