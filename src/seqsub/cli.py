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


def _ranking_report(inst: core.Instance, order: core.Permutation, f_val: float) -> dict:
    """The fields of a `run greedy` or `run cg` report for `order`, whose
    engagement is f_val, with the exact optimum up to the oracle's size cap."""
    out = {
        "n": inst.n,
        "permutation": core.order_to_external(order),
        "engagement": f_val,
        "revenue": core.revenue(inst, order),
    }
    if inst.n > oracle.MAX_BRUTE_N:
        return out
    opt = oracle.brute_force_engagement_opt(inst)
    out["opt_engagement"] = opt.best_value
    out["opt_permutation"] = core.order_to_external(opt.best_witness)
    if opt.best_value > 0:
        out["engagement_ratio"] = f_val / opt.best_value
    return out


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
    order = engagement.greedy_rank(inst)
    report = _ranking_report(inst, order, core.engagement(inst, order))
    summary = f"greedy: permutation {report['permutation']} engagement {report['engagement']:.6f}"
    if "engagement_ratio" in report:
        summary += f" (ratio {report['engagement_ratio']:.4f} of optimum)"
    return report, summary, 0


def _run_cg(args) -> tuple[dict, str, int]:
    inst = core.load_instance(args.instance)
    res = engagement.rank_cg(inst, steps=args.steps, samples=args.samples, seed=args.seed)
    report = {
        **{k: v for k, v in vars(res).items() if k != "order"},
        **_ranking_report(inst, res.order, res.engagement),
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


def _optimum(rep: oracle.OracleReport) -> dict:
    return {
        "value": rep.best_value,
        "permutation": core.order_to_external(rep.best_witness),
        "enumerated": rep.enumerated_count,
    }


def _run_oracle(args) -> tuple[dict, str, int]:
    inst = _instance(args)
    eng = oracle.brute_force_engagement_opt(inst)
    report = {"n": inst.n, "threshold": inst.T, "engagement_opt": _optimum(eng)}
    try:
        rev = oracle.brute_force_revenue_opt(inst)
        report["revenue_opt"] = _optimum(rev)
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


def _revenue_summary(rep: revenue.BiCriteriaReport) -> dict:
    """A revenue report's aggregate fields, which `report` recomputes; an
    infinite float (a ratio whose LP value or floor is 0) reads "inf"."""
    return {
        **{k: "inf" if v == math.inf else v for k, v in vars(rep).items() if k != "trials"},
        "trials": len(rep.trials),
        "best": _trial(rep.best),
    }


def _run_revenue(args) -> tuple[dict, str, int]:
    inst = _instance(args)
    rep = revenue.run_bicriteria(inst, args.trials, factor=args.factor, seed=args.seed)
    # one entry per distinct order, shared by its trials: `dumps` writes it once
    entries = {t.order: t for t in rep.trials}
    entries = {order: _trial(t) for order, t in entries.items()}
    report = {
        **_revenue_summary(rep),
        "n": inst.n,
        "seed": args.seed,
        "per_seed": [entries[t.order] for t in rep.trials],
    }
    ok = rep.guarantees_ok()
    summary = (
        f"revenue: LP {rep.lp_value:.6f}, mean revenue {rep.mean_revenue:.6f}"
        f" (alpha {rep.alpha_ratio:.4f}), mean engagement {rep.mean_engagement:.6f}"
        f" -> guarantees {'PASS' if ok else 'FAIL'}"
    )
    return report, summary, 0 if ok else 2


def _run_coverage(args) -> tuple[dict, str, int]:
    ci = coverage.load_coverage(args.instance)
    best = coverage.coverage_best_of(ci, trials=args.trials, seed=args.seed)
    report = {
        "n": ci.n,
        "seed": args.seed,
        "trials": args.trials,
        "lp_value": best.lp_value,
        "permutation": core.order_to_external(best.order),
        "clicks": best.clicks,
    }
    summary = (
        f"coverage: LP {best.lp_value:.6f}, best clicks {best.clicks}"
        f" at {report['permutation']}"
    )
    return report, summary, 0


def _run_certify(args) -> tuple[dict, str, int]:
    pv = policy.load_policy(args.instance)
    result = policy.check_implementable(pv)
    report = {
        "n": pv.n,
        "feasible": result.feasible,
        "failing_layer": result.failing_layer,
        "reason": result.reason,
        "layer_flows": [
            {"layer": c.layer, "flow": c.flow_value, "feasible": c.feasible}
            for c in result.certs
        ],
        "cut": [[layer, format(mask, "x")] for layer, mask in (result.cut_nodes or [])],
    }
    if result.feasible:
        summary = "certify: feasible (all layer flows = 1)"
    elif result.reason == "unnormalized":
        summary = f"certify: infeasible at layer {result.failing_layer} (unnormalized)"
    else:
        flow = result.certs[result.failing_layer - 1].flow_value
        summary = f"certify: infeasible at layer {result.failing_layer} (max-flow {flow:.6f})"
    return report, summary, 0


#: Each pipeline by its spelling: its runner and the flags it reads beside
#: --instance, --out and --format. Any other flag is a usage error.
_COMMANDS = {
    ("run", "greedy"): (_run_greedy, ()),
    ("run", "cg"): (_run_cg, ("--seed", "--steps", "--samples")),
    ("run", "revenue"): (_run_revenue, ("--seed", "--trials", "--factor", "--threshold")),
    ("run", "coverage"): (_run_coverage, ("--seed", "--trials")),
    ("oracle",): (_run_oracle, ("--threshold",)),
    ("certify",): (_run_certify, ()),
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


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _agrees(claimed, expected) -> bool:
    """Finite floats agree within TOL; "inf", booleans, counts and orders exactly."""
    if isinstance(expected, float):
        return type(claimed) in (int, float) and _close(claimed, expected)
    return type(claimed) is type(expected) and claimed == expected


def _field(data, key: str, convert=float):
    return json_field(data, key, convert, "report")


def _cmd_report(args) -> int:
    """Re-validate a written report: permutations must re-evaluate exactly,
    a reported optimum must bound the reported engagement, an oracle's
    revenue witness must lie between its floor and the engagement optimum
    (and a floor called infeasible above that optimum), a revenue report's
    aggregates must follow from its trials, a coverage report's clicks and
    LP value must not exceed the LP value and the types with an interest, and
    a certify report must match a fresh certification of its policy."""
    rep = read_json(args.report)
    algo = _field(rep, "algo", str)
    failures = []
    if algo in ("greedy", "cg"):
        inst = core.load_instance(args.instance)
        order = _field(rep, "permutation", core.order_from_external)
        f_val = core.engagement(inst, order)
        if not _close(f_val, _field(rep, "engagement")):
            failures.append("engagement mismatch")
        if not _close(core.revenue(inst, order), _field(rep, "revenue")):
            failures.append("revenue mismatch")
        if "opt_engagement" in rep:
            opt_order = _field(rep, "opt_permutation", core.order_from_external)
            opt_val = core.engagement(inst, opt_order)
            if not _close(opt_val, _field(rep, "opt_engagement")):
                failures.append("optimum mismatch")
            if f_val > opt_val + TOL:
                failures.append("engagement above the optimum")
            if opt_val > 0 and not _close(f_val / opt_val, _field(rep, "engagement_ratio")):
                failures.append("engagement ratio mismatch")
    elif algo == "oracle":
        inst = core.load_instance(args.instance)
        eng = _field(rep, "engagement_opt", dict)
        order = _field(eng, "permutation", core.order_from_external)
        opt_val = core.engagement(inst, order)
        if not _close(opt_val, _field(eng, "value")):
            failures.append("engagement optimum mismatch")
        floor = _field(rep, "threshold")
        rev = _field(rep, "revenue_opt", dict)
        if "permutation" in rev:
            order = _field(rev, "permutation", core.order_from_external)
            if not _close(core.revenue(inst, order), _field(rev, "value")):
                failures.append("revenue optimum mismatch")
            if not floor - TOL <= core.engagement(inst, order) <= opt_val + TOL:
                failures.append("revenue optimum outside the engagement floor")
        elif floor - TOL <= opt_val:
            failures.append("engagement optimum reaches the floor called infeasible")
    elif algo == "revenue":
        inst = core.load_instance(args.instance)
        claimed_trials = _field(rep, "per_seed", list)
        orders = [_field(t, "permutation", core.order_from_external) for t in claimed_trials]
        trials = revenue.evaluate_trials(inst, orders)
        for i, (claimed, t) in enumerate(zip(claimed_trials, trials)):
            if not _close(t.engagement, _field(claimed, "engagement")) or not _close(
                t.revenue, _field(claimed, "revenue")
            ):
                failures.append(f"trial {i} mismatch")
        if not trials:
            failures.append("no trials")
        else:
            summary = revenue.summarize(
                trials, _field(rep, "lp_value"), _field(rep, "factor"), _field(rep, "threshold")
            )
            claimed = dict(_flatten({k: v for k, v in rep.items() if k != "per_seed"}))
            for key, value in _flatten(_revenue_summary(summary)):
                if not _agrees(claimed.get(key), value):
                    failures.append(f"{key} mismatch")
    elif algo == "coverage":
        ci = coverage.load_coverage(args.instance)
        order = _field(rep, "permutation", core.order_from_external)
        claimed_clicks, lp_value = _field(rep, "clicks"), _field(rep, "lp_value")
        if coverage.clicks(ci, order) != claimed_clicks:
            failures.append("click count mismatch")
        if claimed_clicks > lp_value + SUM_TOL:
            failures.append("clicks above the LP value")
        if lp_value > sum(map(bool, ci.interest_sets)) + SUM_TOL:  # y_k = 0 if P_k is empty
            failures.append("LP value above the number of types with an interest")
    elif algo == "certify":
        res = policy.check_implementable(policy.load_policy(args.instance))
        claimed = [_field(rep, k, lambda v: v) for k in ("feasible", "failing_layer", "reason")]
        if claimed != [res.feasible, res.failing_layer, res.reason]:
            failures.append("certificate mismatch")
        flows = [_field(c, "flow") for c in _field(rep, "layer_flows", list)]
        if len(flows) != len(res.certs) or not all(
            _close(c.flow_value, f) for c, f in zip(res.certs, flows)
        ):
            failures.append("layer flow mismatch")
    else:
        failures.append(f"unknown report algo {algo!r}")
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
    for (*prefix, algo), (runner, flags) in _COMMANDS.items():
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
