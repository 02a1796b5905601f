"""End-to-end benchmark of the seqsub CLI pipelines, with an optional traced run.

    python3 perfbench/run.py --workload rank-cg --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from ./src.
Set-up imports the package and writes the workload's instance pool (three
times; the median counts). The pool holds as many cycles of the workload's
cells as take about --seconds of CPU time on the reference host (see
workloads.py), so a seed always gives the same ops. After an untimed
warm-up (one op of each kind of call), the closed loop calls
`seqsub.cli.main` in-process on every op of the pool, one at a time.

Times are the process's CPU time (user + system), not wall time. The
benchmark is one thread doing CPU-bound work, so the two differ only by the
time the host takes the CPU away. On shared virtual machines that time is
large and bursty: it can halve the work done in a second. The op times are
then scaled to a reference host speed: after each op, untimed, a fixed
calibration kernel runs for about a tenth of the op's time, and every op
time is multiplied by CAL_REF_S over the kernel's mean time per rep in the
run. Raw CPU and wall-time figures are printed too, for reference.

Every written report is checked outside the timed region; an op whose report
fails a check counts as failed. With --trace 1 the same ops run again with
every public function of the package wrapped (see spans.py), and the
per-layer metrics are printed instead of the end-to-end ones. The last line
of stdout is one JSON object; human-readable lines, the failure list and the
environment come before it, and a copy of everything goes to
.perfbench_work/results/. Exit code 1 (and "correct": false) means a check of
the benchmark itself failed: set-up was not reproducible, or tracing changed
an output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 3

#: CPU time of one calibration rep at the reference speed, and the op time
#: per extra rep (an op of t seconds is followed by 1 + t // CAL_EVERY_S reps).
CAL_REF_S = 3.0e-3
CAL_EVERY_S = 0.1
RATIO_TOL = 1e-9

END_TO_END = (
    ("solves_per_s", "1/s"),
    ("solve_s.p50", "s"),
    ("solve_s.p90", "s"),
    ("ok_frac", "ratio"),
    ("quality.mean", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics from the traced run; "<span>.<field>" per op unless noted.
PER_LAYER = (
    ("core.batch_value.self_s", "s/op"),
    ("core.batch_value.sets", "count/op"),
    ("engagement.batch_marginal_weights.self_s", "s/op"),
    ("engagement.batch_marginal_weights.calls", "count/op"),
    ("matroid.max_weight_base.self_s", "s/op"),
    ("matroid.max_weight_base.calls", "count/op"),
    ("matroid.continuous_greedy.self_s", "s/op"),
    ("matroid.pipage_round.self_s", "s/op"),
    ("matroid.estimate_multilinear.self_s", "s/op"),
    ("engagement.greedy_rank.self_s", "s/op"),
    ("oracle.brute_force_engagement_opt.self_s", "s/op"),
    ("oracle.brute_force_engagement_opt.enumerated", "count/op"),
    ("revenue.build_policy_lp.self_s", "s/op"),
    ("revenue.build_policy_lp.columns", "count/op"),
    ("revenue.solve_policy_lp.self_s", "s/op"),
    ("revenue.solve_policy_lp.failed", "count/op"),
    ("numerics.simplex_solve.self_s", "s/op"),
    ("numerics.simplex_solve.calls", "count/op"),
    ("numerics.simplex_solve.pivots", "count/op"),
    ("numerics.simplex_solve.cells", "count/op"),
    ("numerics.simplex_solve.failed", "count/op"),
    ("revenue.run_bicriteria.self_s", "s/op"),
    ("revenue.round_to_permutation.self_s", "s/op"),
    ("matroid.sample_independent_point.self_s", "s/op"),
    ("matroid.crs_round.self_s", "s/op"),
    ("matroid.crs_round.sampled", "count/op"),
    ("matroid.crs_round.kept", "count/op"),
    ("matroid.crs_round.kept_ratio", "ratio"),
    ("engagement.extract_permutation.self_s", "s/op"),
    ("core.engagement.self_s", "s/op"),
    ("core.engagement.calls", "count/op"),
    ("core.revenue.self_s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("coverage.solve_assignment_lp.self_s", "s/op"),
    ("coverage.round_assignment.self_s", "s/op"),
    ("coverage.round_assignment.calls", "count/op"),
    ("policy.check_implementable.self_s", "s/op"),
    ("numerics.max_flow.self_s", "s/op"),
    ("numerics.max_flow.calls", "count/op"),
    ("numerics.max_flow.edges", "count/op"),
    ("generators.self_s", "s"),  # all generator calls of one set-up, not per op
    ("trace.overhead_frac", "ratio"),
)

# The program's own error messages, mapped to the failure classes listed.
_MESSAGE_CLASSES = (
    ("simplex iteration cap exceeded", "simplex-cap"),
    ("marginal bound", "marginal-bound"),
    ("basic solution lost feasibility", "simplex-lost-feasibility"),
)


class Deadline(BaseException):
    """Raised from SIGPROF when an op overruns; cli.main does not catch it."""

    def __init__(self, frame):
        super().__init__()
        self.frame = frame


def _on_alarm(signum, frame):
    raise Deadline(frame)


def _deadline_site(frame) -> str:
    """Innermost public seqsub function on the stack when the deadline fired."""
    fallback = "outside seqsub"
    while frame is not None:
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith("seqsub."):
            name = f"{mod[len('seqsub.'):]}.{frame.f_code.co_name}"
            if not frame.f_code.co_name.startswith("_"):
                return name
            fallback = name
        frame = frame.f_back
    return fallback


def _classify(rc: int, stderr: str) -> str:
    if rc == 2:
        return "guarantee-fail (exit 2)"
    for needle, label in _MESSAGE_CLASSES:
        if needle in stderr:
            return label
    last = stderr.strip().splitlines()[-1] if stderr.strip() else "no message"
    return f"exit {rc}: {last[:120]}"


_CAL_MATRIX = [None]


def calibrate(reps: int) -> float:
    """CPU time of `reps` reps of a fixed kernel: an interpreter loop and small
    matrix products, the two kinds of work the pipelines do. It shares no code
    with seqsub, so a change to the program cannot change its time."""
    import numpy as np

    if _CAL_MATRIX[0] is None:
        _CAL_MATRIX[0] = np.random.default_rng(0).random((40, 200))
    a = _CAL_MATRIX[0]
    start = time.process_time()
    for _ in range(reps):
        acc, seen = 0, {}
        for i in range(10_000):
            acc += i * i % 7
            seen[i % 97] = seen.get(i % 97, 0) + acc
        for _ in range(20):
            a @ a.T
    return time.process_time() - start


class Bench:
    """One workload run: set-up, untraced pass, and optionally a traced pass."""

    def __init__(self, wl, seed: int, seconds: float, workdir: Path):
        from seqsub import cli, core

        self.cli, self.core = cli, core
        self.wl, self.seed, self.seconds, self.workdir = wl, seed, seconds, workdir
        self.ops = []
        self.opt_cache: dict[str, float] = {}
        self.tracer = None

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> float:
        import workloads

        start = time.process_time()
        self.ops = workloads.write_pool(self.wl, self.seed, self.seconds, str(self.workdir))
        return time.process_time() - start

    def pool_digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(Path(op.path).read_bytes())
        return h.hexdigest()

    # -- one op -----------------------------------------------------------------
    def run_op(self, op):
        """Timed CLI calls of one op; returns (CPU s, wall s, failure class or None)."""
        err = None
        sink_out, sink_err = io.StringIO(), io.StringIO()
        start, wall = time.process_time(), time.perf_counter()
        if self.tracer:
            self.tracer.begin(op.index)
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                try:
                    signal.setitimer(signal.ITIMER_PROF, self.wl.deadline_s)
                    for k, argv in enumerate(op.calls):
                        rc = self.cli.main(list(argv) + ["--out", self._out(k)])
                        if rc != 0:
                            err = _classify(rc, sink_err.getvalue())
                            break
                finally:
                    signal.setitimer(signal.ITIMER_PROF, 0)
        except Deadline as exc:
            site = _deadline_site(exc.frame)
            label = "simplex-cap" if site.startswith("numerics.simplex_solve") else "deadline"
            err = f"{label} (op passed its {self.wl.deadline_s:g} s deadline in {site})"
        except Exception as exc:  # a raw traceback from the CLI is a failed op
            err = f"raised {type(exc).__name__}: {str(exc)[:120]}"
        elapsed, wall = time.process_time() - start, time.perf_counter() - wall
        if self.tracer:
            self.tracer.end()
        return elapsed, wall, err

    def _out(self, k: int) -> str:
        return str(self.workdir / f"out{k}.json")

    def _opt(self, path: str) -> float:
        if path not in self.opt_cache:
            self.opt_cache[path] = best_engagement(self.core.load_instance(path))
        return self.opt_cache[path]

    def check_op(self, op):
        """Untimed output checks. Returns (report hashes, quality, wrong-answer text)."""
        hashes, quality, wrong = [], None, []
        for k in range(len(op.calls)):
            raw = Path(self._out(k)).read_bytes()
            hashes.append(hashlib.sha256(raw).hexdigest())
            rep = json.loads(raw)
            algo = rep["algo"]
            if algo != "certify":
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.cli.main(["report", "--report", self._out(k), "--instance", op.path])
                if rc != 0:
                    wrong.append(f"`seqsub report` rejected the {algo} report")
            if algo in ("greedy", "cg"):
                opt = self._opt(op.path)
                q = rep["engagement"] / opt
                if "opt_engagement" in rep and abs(rep["opt_engagement"] - opt) > RATIO_TOL:
                    wrong.append(f"{algo} report optimum differs from the exact optimum")
                if algo == "cg":
                    quality = q
            elif algo == "revenue":
                q = quality = rep["alpha_ratio"]
            elif algo == "coverage":
                q = quality = rep["clicks"] / rep["lp_value"]
            else:
                q = 1.0
                if rep["feasible"] is not True:
                    wrong.append("certify called a generated mixture infeasible")
            if not isinstance(q, float) or not math.isfinite(q) or q > 1.0 + RATIO_TOL:
                wrong.append(f"{algo} quality ratio {q!r} above 1 + {RATIO_TOL:g}")
        return hashes, quality, "; ".join(wrong) or None

    # -- a pass over the pool ---------------------------------------------------------
    def warm_up(self) -> None:
        """Run the first op of each kind of call once, untimed and unchecked."""
        seen = set()
        for op in self.ops:
            shape = (op.cell.source, op.cell.kind, op.cell.args)
            if shape not in seen:
                seen.add(shape)
                calibrate(1 + int(self.run_op(op)[0] / CAL_EVERY_S))

    def run_pass(self) -> dict:
        """Closed loop: every op of the pool once, back to back."""
        recs, cal_s, cal_reps = [], [], []
        busy = busy_wall = 0.0
        for op in self.ops:
            elapsed, wall, err = self.run_op(op)
            busy += elapsed
            busy_wall += wall
            cal_reps.append(1 + int(elapsed / CAL_EVERY_S))
            cal_s.append(calibrate(cal_reps[-1]))
            hashes, quality, wrong = [], None, None
            if err is None:
                try:
                    hashes, quality, wrong = self.check_op(op)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    wrong = f"unreadable report ({type(exc).__name__}: {exc})"
            recs.append({
                "op": op, "s": elapsed, "wall": wall,
                "error": err or (wrong and f"wrong answer: {wrong}"),
                "hashes": hashes, "quality": quality,
            })
        speed = CAL_REF_S * sum(cal_reps) / sum(cal_s)
        for r, c, k in zip(recs, cal_s, cal_reps):
            r.update(scaled=r["s"] * speed, cal_s=c, cal_reps=k)
        return {"recs": recs, "busy": busy, "busy_wall": busy_wall, "speed": speed}


def best_engagement(inst) -> float:
    """Exact optimum over all permutations by dynamic programming over prefix sets.

    engagement depends on an order only through its prefix sets, so
    best[S] = lam[|S|-1] * f(S) + max over j in S of best[S - j]. It needs
    2^n * n model values instead of n! and shares no code with the pipelines
    or with seqsub.oracle, whose brute force the CLI reports at n <= 7.
    """
    n = inst.n
    best = [0.0] * (1 << n)
    for S in range(1, 1 << n):
        k = bin(S).count("1") - 1
        prev = max(best[S ^ (1 << j)] for j in range(n) if S >> j & 1)
        best[S] = prev + (inst.lam[k] * inst.models[k].value(S) if inst.lam[k] else 0.0)
    return best[-1]


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def raw_figures(p: dict) -> dict:
    """The timing metrics in unscaled CPU time and in wall time, for reference."""
    ok = sum(r["error"] is None for r in p["recs"])
    out = {"host_speed": p["speed"]}
    for label, key, busy in (("cpu", "s", "busy"), ("wall", "wall", "busy_wall")):
        times = [r[key] for r in p["recs"]]
        out[f"solves_per_{label}_s"] = ok / p[busy]
        out[f"{label}_s.p50"] = statistics.median(times)
        out[f"{label}_s.p90"] = _p90(times)
    return out


def end_to_end(p: dict, setup_s: float) -> dict:
    recs = p["recs"]
    times = [r["scaled"] for r in recs]
    ok = [r for r in recs if r["error"] is None]
    qual = [r["quality"] for r in ok if r["quality"] is not None]
    return {
        "solves_per_s": len(ok) / sum(times),
        "solve_s.p50": statistics.median(times),
        "solve_s.p90": _p90(times),
        "ok_frac": len(ok) / len(recs),
        "quality.mean": statistics.fmean(qual) if qual else float("nan"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(totals: dict, setup_totals: dict, n_ops: int, overhead: float) -> dict:
    out = {}
    for name, _ in PER_LAYER:
        span, field = name.rsplit(".", 1)
        t = totals.get(span, {})
        if field == "self_s":
            out[name] = t.get("self_ns", 0) / 1e9 / n_ops
        elif field == "kept_ratio":
            out[name] = t.get("kept", 0) / t["sampled"] if t.get("sampled") else 0.0
        else:
            out[name] = t.get(field, 0) / n_ops
    out["generators.self_s"] = sum(
        t["self_ns"] for k, t in setup_totals.items() if k.startswith("generators.")
    ) / 1e9
    out["trace.overhead_frac"] = overhead
    return out


def layer_shares(totals: dict, busy_s: float) -> list[tuple[str, float]]:
    """Each layer's self time as a share of the traced ops' wall time (spans
    are timed by the wall clock, which is far cheaper to read)."""
    import spans

    shares = {layer: 0.0 for layer in spans.LAYERS}
    for name, t in totals.items():
        shares[name.split(".", 1)[0]] += t["self_ns"] / 1e9 / busy_s
    shares["(benchmark harness)"] = 1.0 - sum(shares.values())
    return sorted(shares.items(), key=lambda kv: -kv[1])


def failures(recs) -> list[dict]:
    return [
        {"op": r["op"].index, "kind": r["op"].cell.kind, "n": r["op"].cell.n,
         "inst_seed": r["op"].inst_seed, "args": " ".join(r["op"].calls[-1][:2]),
         "threshold": r["op"].cell.floor, "s": round(r["s"], 4), "class": r["error"]}
        for r in recs if r["error"] is not None
    ]


def environment() -> dict:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    sha = "none (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "seqsub").rglob("*.py")):
        src.update(f.read_bytes())
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    threads = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = line.split()[1]
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "SEQSUB_THREADS": os.environ.get("SEQSUB_THREADS", "unset"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result record (metrics, failures, checks)."""
    import workloads

    start = time.process_time()
    from seqsub import cli  # noqa: F401  (imports the whole package)

    import_s = time.process_time() - start
    wl = workloads.workload(name, tiny)
    workdir = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    previous = signal.signal(signal.SIGPROF, _on_alarm)
    try:
        bench = Bench(wl, seed, seconds, workdir)
        setup_times, pools = [], set()
        for _ in range(SETUP_REPEATS):
            setup_times.append(bench.setup())
            pools.add(bench.pool_digest())
        setup_s = import_s + statistics.median(setup_times)
        setup_differs = len(pools) != 1
        pool = pools.pop()
        bench.warm_up()
        plain = bench.run_pass()
        recs = plain["recs"]
        result = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "pool_size": len(bench.ops), "deadline_s": wl.deadline_s,
            "attempted": len(recs),
            "failed": sum(r["error"] is not None for r in recs),
            "failures": failures(recs),
            "setup_differs": setup_differs,
            "import_s": import_s,
            "pool_write_s": setup_times,
            "op_seconds": [round(r["s"], 6) for r in recs],
            "op_scaled_seconds": [round(r["scaled"], 6) for r in recs],
            "op_cal_seconds": [round(r["cal_s"], 6) for r in recs],
            "op_cal_reps": [r["cal_reps"] for r in recs],
            "op_wall_seconds": [round(r["wall"], 6) for r in recs],
            "raw": raw_figures(plain),
            "environment": environment(),
        }
        if not trace:
            result["metrics"] = end_to_end(plain, setup_s)
            return result
        import spans

        tracer = bench.tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.begin(-1)
            bench.setup()
            tracer.end()
            setup_totals = tracer.totals
            tracer.reset_totals()
            traced = bench.run_pass()
        finally:
            tracer.uninstall()
            bench.tracer = None
        totals = tracer.totals
        same_ops = [(a, b) for a, b in zip(recs, traced["recs"]) if a["hashes"] and b["hashes"]]
        differ = [a["op"].index for a, b in same_ops if a["hashes"] != b["hashes"]]
        plain_busy = sum(a["scaled"] for a in recs)
        overhead = sum(b["scaled"] for b in traced["recs"]) / plain_busy - 1.0
        result.update({
            "traced_attempted": len(traced["recs"]),
            "status_differs": sum((a["error"] is None) != (b["error"] is None)
                                  for a, b in zip(recs, traced["recs"])),
            "reports_compared": sum(len(a["hashes"]) for a, _ in same_ops),
            "reports_differ": differ,
            "pool_differs": bench.pool_digest() != pool,
            "spans": tracer.span_count(),
            "layer_shares": layer_shares(totals, traced["busy_wall"]),
            "span_totals": totals,
            "metrics": per_layer(totals, setup_totals, len(traced["recs"]), overhead),
        })
        results = ROOT / ".perfbench_work" / "results"
        results.mkdir(parents=True, exist_ok=True)
        tracer.save(str(results / f"{name}-seed{seed}.spans.npz"))
        return result
    finally:
        signal.signal(signal.SIGPROF, previous)
        shutil.rmtree(workdir, ignore_errors=True)


def correct(result: dict) -> bool:
    """The benchmark's own invariants: set-up is reproducible and tracing changes
    no output. A wrong answer from the program is a failed op, not a broken run."""
    return not (
        result["setup_differs"] or result.get("reports_differ") or result.get("pool_differs")
    )


def report(result: dict) -> None:
    """Human-readable lines; the JSON line is printed by main."""
    units = dict(END_TO_END + PER_LAYER)
    n = result["attempted"]
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{n} ops attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / n:.4f}), pool {result['pool_size']} instances")
    for key, value in result["metrics"].items():
        samples = f"({n} ops)" if key.startswith("solve") else ""
        print(f"  {key:<46} {value:>14.6g} {units[key]:<9} {samples}")
    print("  unscaled, for reference: " + ", ".join(
        f"{k} {v:.6g}" for k, v in result["raw"].items()))
    if result["trace"]:
        print(f"  traced ops {result['traced_attempted']}, spans {result['spans']}, "
              f"reports compared {result['reports_compared']}, differing "
              f"{len(result['reports_differ'])}, op status differs {result['status_differs']}")
        print("  layer share of traced op wall time:")
        for layer, share in result["layer_shares"]:
            print(f"    {layer:<22} {share:7.1%}")
    classes: dict[str, int] = {}
    for f in result["failures"]:
        key = f["class"].split(" (", 1)[0].split(":", 1)[0]
        classes[key] = classes.get(key, 0) + 1
    if classes:
        print("  failures by class: " + ", ".join(f"{k} x{v}" for k, v in sorted(classes.items())))
    for f in result["failures"]:
        print(f"  failed op {f['op']}: {f['args']} kind={f['kind']} n={f['n']} "
              f"inst_seed={f['inst_seed']} threshold={f['threshold']} after {f['s']} s: {f['class']}")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    slim = {k: v for k, v in result.items() if k != "span_totals"}
    out.write_text(json.dumps(slim, indent=1, sort_keys=True, default=str) + "\n")
    units = dict(END_TO_END + PER_LAYER)
    ok = correct(result)
    print(json.dumps({
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0 if ok else 1


def _prepare() -> None:
    """Pin the process to one thread and import the package from ./src only."""
    if not (ROOT / "src" / "seqsub" / "__init__.py").is_file():
        sys.exit(f"perfbench: no seqsub sources under {ROOT / 'src'}; run from a source checkout")
    os.environ.pop("SEQSUB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


if __name__ == "__main__":
    _prepare()
    sys.exit(main())
