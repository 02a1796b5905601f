"""End-to-end CLI behavior: gen, run, certify, oracle, report, exit codes."""

import hashlib
import json
import math

import pytest

from auditors import highs_value
from seqsub import cli, core, coverage, generators, oracle, policy, revenue
from seqsub.cli import main


@pytest.fixture()
def appendix_c_path(tmp_path, appendix_c):
    path = tmp_path / "appendix_c.json"
    core.save_instance(appendix_c, path)
    return str(path)


@pytest.fixture()
def example_1_path(tmp_path, example_1):
    path = tmp_path / "example_1.json"
    core.save_instance(example_1, path)
    return str(path)


def test_gen_mnl_is_loadable(tmp_path):
    out = tmp_path / "mnl.json"
    assert main(["gen", "--kind", "mnl", "--n", "5", "--seed", "1", "--out", str(out)]) == 0
    inst = core.load_instance(out)
    assert inst.n == 5
    assert abs(sum(inst.lam) - 1.0) <= 1e-9


def test_gen_explicit_is_submodular(tmp_path):
    out = tmp_path / "explicit.json"
    assert main(["gen", "--kind", "explicit", "--n", "4", "--seed", "2", "--out", str(out)]) == 0
    inst = core.load_instance(out)
    assert oracle.verify_monotone_submodular(inst.models[0], 4).ok


def test_gen_coverage_sets_nonempty(tmp_path):
    out = tmp_path / "cov.json"
    assert main(["gen", "--kind", "coverage", "--n", "8", "--seed", "3", "--out", str(out)]) == 0
    ci = coverage.load_coverage(out)
    assert all(0 < s < 1 << 8 for s in ci.interest_sets)


#: sha256 of the file bytes that `gen --kind K --n 6 --seed 1` writes: the
#: indentation, key order and final newline are part of the file format.
PINNED_GEN_DIGESTS = {
    "coverage": "78b4a29fc77b9dca6e23e0d93287fd68d977632f35373864ed1471750b4fe31b",
    "explicit": "4c8a11897c9a82d43c79f42b8bb8d689708a47b31aa8985ff213a69cb13ffa03",
    "mnl": "6b907126505100f3b2b08965a9bfd02306609bfed2ebdf52ae6effabf963b75c",
}


@pytest.mark.parametrize("kind", sorted(PINNED_GEN_DIGESTS))
def test_gen_file_bytes_are_pinned(kind, tmp_path):
    out = tmp_path / f"{kind}.json"
    assert main(["gen", "--kind", kind, "--n", "6", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_GEN_DIGESTS[kind]


def test_gen_explicit_at_the_verification_cap(tmp_path):
    """`gen --kind explicit` reaches n = oracle.MAX_VERIFY_N, where the
    generator checks the whole 2^12-entry table before writing it."""
    n = oracle.MAX_VERIFY_N
    out = tmp_path / "explicit.json"
    args = ["gen", "--kind", "explicit", "--n", str(n), "--seed", "1", "--out", str(out)]
    assert main(args) == 0
    inst = core.load_instance(out)
    assert inst.n == n and len(inst.models[0].table) == 1 << n
    assert oracle.verify_monotone_submodular(inst.models[0], n).ok


def test_run_oracle_reports_best_revenue(appendix_c_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["oracle", "--instance", appendix_c_path, "--out", str(out)])
    assert code == 0
    assert "47.75" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["revenue_opt"]["value"] == pytest.approx(47.75, abs=1e-9)


def test_oracle_applies_threshold(appendix_c, appendix_c_path, tmp_path):
    """--threshold overrides the engagement floor T, as it does for run revenue."""
    out = tmp_path / "report.json"
    mnl = tmp_path / "mnl.json"
    main(["gen", "--kind", "mnl", "--n", "4", "--seed", "1", "--out", str(mnl)])

    def oracle_report(path, threshold):
        argv = ["oracle", "--instance", path, "--out", str(out), "--threshold", repr(threshold)]
        assert main(argv) == 0
        return json.loads(out.read_text())

    report = oracle_report(appendix_c_path, 0.9)  # the best engagement is 0.4775
    assert report["engagement_opt"]["value"] == pytest.approx(0.4775, abs=1e-9)
    assert set(report["revenue_opt"]) == {"infeasible"}
    for inst, path in ((appendix_c, appendix_c_path), (core.load_instance(mnl), str(mnl))):
        floor = oracle.brute_force_engagement_opt(inst).best_value
        want = oracle.brute_force_revenue_opt(inst.with_threshold(floor))
        got = oracle_report(path, floor)["revenue_opt"]
        assert got["value"] == want.best_value
        assert got["permutation"] == core.order_to_external(want.best_witness)
    # on the mnl instance the floor binds: it costs revenue
    assert want.best_value < oracle.brute_force_revenue_opt(inst).best_value


def test_run_greedy_reports_ratio(example_1_path, tmp_path):
    out = tmp_path / "greedy.json"
    assert main(["run", "greedy", "--instance", example_1_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["permutation"] == [2, 1]
    assert report["engagement_ratio"] == pytest.approx(1.1 / 2.1, abs=1e-9)


@pytest.mark.parametrize("algo", ["greedy", "cg"])
def test_ranking_reports_above_the_oracle_cap_carry_no_optimum(algo, tmp_path, capsys):
    n = oracle.MAX_BRUTE_N + 1
    path, out = str(tmp_path / "mnl.json"), tmp_path / f"{algo}.json"
    main(["gen", "--kind", "mnl", "--n", str(n), "--seed", "1", "--out", path])
    flags = ["--steps", "5", "--samples", "16"] if algo == "cg" else []
    capsys.readouterr()
    assert main(["run", algo, "--instance", path, *flags, "--out", str(out)]) == 0
    assert "optimum" not in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["n"] == n
    assert not [k for k in report if k.startswith("opt_") or k == "engagement_ratio"]
    assert main(["report", "--report", str(out), "--instance", path]) == 0


def test_run_cg_quick(appendix_c_path, tmp_path):
    out = tmp_path / "cg.json"
    code = main(
        [
            "run", "cg", "--instance", appendix_c_path,
            "--steps", "10", "--samples", "50", "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert sorted(report["permutation"]) == [1, 2, 3, 4]
    inst = core.load_instance(appendix_c_path)
    order = core.order_from_external(report["permutation"])
    assert core.engagement(inst, order) == pytest.approx(report["engagement"], abs=1e-9)


DETERMINISM_FLAGS = {
    "revenue": ["--trials", "20"],
    "cg": ["--steps", "5", "--samples", "20"],
    "coverage": ["--trials", "20"],
}


@pytest.mark.parametrize("algo", sorted(DETERMINISM_FLAGS))
def test_reports_are_byte_identical_for_fixed_seed(algo, appendix_c_path, tmp_path):
    path = appendix_c_path
    if algo == "coverage":  # interest-set instances have their own file format
        path = str(tmp_path / "cov.json")
        assert main(["gen", "--kind", "coverage", "--n", "6", "--seed", "4", "--out", path]) == 0
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["run", algo, "--instance", path, "--seed", "9"] + DETERMINISM_FLAGS[algo]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


#: sha256 of the `run revenue --trials 200 --seed 7` report on
#: random_instance(kind, 5, 1, full_mass=True, with_payments=True), hashed as
#: sorted-key JSON with the `instance` path dropped. The trials draw their
#: trial-major blocks from one generator, so a change to any draw changes the
#: factor-0.632 digests; at factor 1.0 the marginals are integral and every trial is the same.
PINNED_REVENUE_DIGESTS = {
    ("coverage", "0.632"): "d6a180f4dc36e51ab79f583476b9c5fb4fb04b890e3b02c6b295e108d019899c",
    ("coverage", "1.0"): "8b491794894dbe703c19c048533fac4bab33ba28467b1319dd907a3c3e78d40b",
    ("explicit", "0.632"): "e87e8c964fdcd1bbff6f66ce0c59cdd571ee1bb7affdb2bd6e9db5b41b2819e6",
    ("explicit", "1.0"): "bd201e93d1cd7c231ef5a8f0384c7c326dacb3447d838e978110a466f236a85b",
    ("mnl", "0.632"): "3a080f838d103cda8fd936ea3b483942f4173e4460dafa62cce2596af8096afd",
    ("mnl", "1.0"): "8d9d889b0cd55cf61a0a27f4b1bfb1f0ecb929e163d3dda9205164ce012aa299",
}


def _report_digest(out) -> str:
    report = json.loads(out.read_text())
    del report["instance"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kind, factor", sorted(PINNED_REVENUE_DIGESTS))
def test_seeded_revenue_reports_are_pinned(kind, factor, tmp_path):
    path, out = tmp_path / "inst.json", tmp_path / "rev.json"
    core.save_instance(
        generators.random_instance(kind, 5, 1, full_mass=True, with_payments=True), path
    )
    args = ["run", "revenue", "--instance", str(path), "--trials", "200", "--seed", "7",
            "--factor", factor, "--out", str(out)]
    assert main(args) == 0
    assert _report_digest(out) == PINNED_REVENUE_DIGESTS[kind, factor]


#: sha256 of the raw `--out` bytes of `run revenue --seed 7 --instance inst.json`
#: on the mnl instance above, run from the instance's directory, by format,
#: trial count and factor: the report text itself (indentation, key order,
#: float spelling, final newline) and the rows of csv and pretty-table.
PINNED_REVENUE_FILE_DIGESTS = {
    ("csv", "1000", "0.632"): "785be4acfa11cd66484635104bb957d5edfc5db634118f4343ba29fe805e699f",
    ("json", "200", "0.632"): "677f668491b21c26d0981aa5757c859778310e3152502c7ba198ac3523e430a5",
    ("json", "200", "1.0"): "548b2c8bfd8edc9c3048db2d6fa66682b7384cb37316f854c2628915cf968319",
    ("pretty-table", "1000", "0.632"): (
        "14d55a52ae2797d82369972bca65614d273e27485c5bebb851d1baf14486d9ac"
    ),
}


@pytest.mark.parametrize("fmt, trials, factor", sorted(PINNED_REVENUE_FILE_DIGESTS))
def test_revenue_report_file_bytes_are_pinned(fmt, trials, factor, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    core.save_instance(
        generators.random_instance("mnl", 5, 1, full_mass=True, with_payments=True), "inst.json"
    )
    args = ["run", "revenue", "--instance", "inst.json", "--trials", trials, "--seed", "7",
            "--factor", factor, "--format", fmt, "--out", "rev.out"]
    assert main(args) == 0
    digest = hashlib.sha256((tmp_path / "rev.out").read_bytes()).hexdigest()
    assert digest == PINNED_REVENUE_FILE_DIGESTS[fmt, trials, factor]


def _written_files(tmp_path, worked_policy_vector) -> dict:
    """Every kind of file the CLI writes, by name: each `gen` kind, a saved
    policy and the JSON report of each pipeline, including an infeasible
    oracle floor, an infeasible certificate and revenue ratios that read "inf"."""
    paths = {}

    def run(name, *argv):
        paths[name] = str(tmp_path / f"{name}.json")
        assert main([*argv, "--out", paths[name]]) in (0, 2)

    for kind in generators.KINDS:
        run(f"gen-{kind}", "gen", "--kind", kind, "--n", "5", "--seed", "1")
    mnl = paths["gen-mnl"]
    for name, pv in (("policy-feasible", generators.random_policy_mixture(6, 5, 1)),
                     ("policy-infeasible", worked_policy_vector)):
        paths[name] = str(tmp_path / f"{name}.json")
        policy.save_policy(pv, paths[name])
        run(f"certify-{name}", "certify", "--instance", paths[name])
    run("greedy", "run", "greedy", "--instance", mnl)
    run("cg", "run", "cg", "--instance", mnl, "--steps", "5", "--samples", "20")
    run("oracle", "oracle", "--instance", mnl)
    run("oracle-infeasible", "oracle", "--instance", mnl, "--threshold", "1.0")
    for factor in ("1.0", "0.632"):
        run(f"revenue-{factor}", "run", "revenue", "--instance", mnl, "--trials", "50",
            "--seed", "3", "--factor", factor)
    run("coverage", "run", "coverage", "--instance", paths["gen-coverage"], "--trials", "20")
    return paths


def test_every_written_file_is_json_indent_2_text(tmp_path, worked_policy_vector, capsys):
    paths = _written_files(tmp_path, worked_policy_vector)
    texts = {name: open(path, encoding="utf-8").read() for name, path in paths.items()}
    for name, text in texts.items():
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
    reports = {name: json.loads(texts[name]) for name in paths}
    assert reports["revenue-0.632"]["beta_ratio"] == reports["revenue-1.0"]["worst_beta"] == "inf"
    assert set(reports["oracle-infeasible"]["revenue_opt"]) == {"infeasible"}
    assert reports["certify-policy-feasible"]["feasible"] is True
    assert reports["certify-policy-infeasible"]["feasible"] is False


def _recorded_lps(monkeypatch, module) -> list:
    """Every LP that `module` hands the simplex during the test."""
    built, real = [], module.simplex_solve
    monkeypatch.setattr(module, "simplex_solve", lambda p: built.append(p) or real(p))
    return built


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12])
def test_run_revenue_solves_generated_mnl_instances(n, tmp_path, monkeypatch):
    """`gen --kind mnl --seed 3` up to the relaxation's cap: the LP value
    matches HiGHS and the report validates. A ratio test that divided by
    tiny pivots failed at n = 7 on a negative marginal and at n = 8 at the
    iteration cap; Bland's entering rule hit the cap at n = 9 and 10."""
    path, out = str(tmp_path / "mnl.json"), str(tmp_path / "rev.json")
    assert main(["gen", "--kind", "mnl", "--n", str(n), "--seed", "3", "--out", path]) == 0
    lps = _recorded_lps(monkeypatch, revenue)
    assert main(["run", "revenue", "--instance", path, "--out", out]) == 0
    assert main(["report", "--report", out, "--instance", path]) == 0
    lp_value = json.loads((tmp_path / "rev.json").read_text())["lp_value"]
    assert lp_value == pytest.approx(highs_value(lps[0]), rel=1e-9, abs=0.0)


def test_run_coverage_solves_at_the_lp_cap(tmp_path, monkeypatch):
    """The assignment LP at n = coverage.MAX_LP3_N = 50 matches HiGHS.
    Bland's entering rule hit the iteration cap there."""
    n = str(coverage.MAX_LP3_N)
    path, out = str(tmp_path / "cov.json"), str(tmp_path / "run.json")
    assert main(["gen", "--kind", "coverage", "--n", n, "--seed", "1", "--out", path]) == 0
    lps = _recorded_lps(monkeypatch, coverage)
    assert main(["run", "coverage", "--instance", path, "--out", out]) == 0
    lp_value = json.loads((tmp_path / "run.json").read_text())["lp_value"]
    assert lp_value == pytest.approx(highs_value(lps[0]), rel=1e-9, abs=0.0)


#: sha256 of the `run cg --seed 3` and `run greedy` reports on
#: random_instance(kind, n, 1, full_mass=True, with_payments=True), hashed as
#: the revenue reports above. Every one of these reports also carries the
#: exact optimum, which the CLI adds up to the oracle's cap.
PINNED_RANKING_DIGESTS = {
    ("cg", "coverage", 6): "99e13dc992b444b5d1d33aa6f7bbf1452ebedfdf65a8d52b1ad376c4f3083e04",
    ("cg", "coverage", 7): "a01463a8b95d38cff6d41db56d3cf9f2faf678ace75deebee1d17fce7edeca80",
    ("cg", "coverage", 8): "52fba70bdb034d282cab299555550fa6a014da0c8c2c3d4661c070244bf45526",
    ("cg", "explicit", 6): "800fa335e0c263dd925b5500cdaca4ce0c27871cd87e6624d3004770582d03f0",
    ("cg", "explicit", 7): "86d25d3f12c4b1be81f826b244c602a789cd640ea838290cf7dd20e85297bc60",
    ("cg", "explicit", 8): "cfa4c53f8106d989145f87d9af92d7d107c0d5e705f41617b59503670c32ad6c",
    ("cg", "mnl", 6): "2868c4de0a2d70eb7e2611708c80288474919815b913612c552e80640af7215f",
    ("cg", "mnl", 7): "11f5f67d145461480e9785c79468ce562e1599caa301c2defa6306da04d56a07",
    ("cg", "mnl", 8): "629deb4ef42cb0d34b908bc74381c9cff36ab90ae67f8ff6c8103e25c9325463",
    ("greedy", "coverage", 6): "34b2528b7deed56a907195e2c66a0f2701d5e310332f3310bf84027d0a310ecb",
    ("greedy", "coverage", 7): "2eb186ae67cddfbe8267d4b71673d50f8452ca141be620bc8032b297bc6d232a",
    ("greedy", "coverage", 8): "08cd197cf652f2918bec0f7ee2852f49a325bf5818e0f47760cccf8c77085dde",
    ("greedy", "explicit", 6): "2a0f852ecbd3adaa2ac4f750237a725e54922672fc441635fb9ebc19f9353f29",
    ("greedy", "explicit", 7): "da3de819e54eb14c82ded8d966a94d77fd626bec7788758c358bf0e0b05c30ee",
    ("greedy", "explicit", 8): "3b04e4d0cc5aefda87b82cb737c1f96c1b041038bb9acd8467517f1d487a60d4",
    ("greedy", "mnl", 6): "6f4724bdabdf64302584b06e34b0400e840cc77f88283121b26397c2cd6cf959",
    ("greedy", "mnl", 7): "4dcd41de5ada211432a2a2aad37f761123867e19f2b0caaf8071e89ca8cba5ab",
    ("greedy", "mnl", 8): "9b2bc78e982e85609ede85dfa797be819500fa8e6563fedbeebbb9f18bba4816",
}


@pytest.mark.parametrize("algo, kind, n", sorted(PINNED_RANKING_DIGESTS))
def test_seeded_ranking_reports_are_pinned(algo, kind, n, tmp_path):
    path, out = tmp_path / "inst.json", tmp_path / "rank.json"
    core.save_instance(
        generators.random_instance(kind, n, 1, full_mass=True, with_payments=True), path
    )
    seed = ["--seed", "3"] if algo == "cg" else []
    assert main(["run", algo, "--instance", str(path), *seed, "--out", str(out)]) == 0
    assert _report_digest(out) == PINNED_RANKING_DIGESTS[algo, kind, n]


#: sha256 of the `run coverage --trials 100 --seed 3` report on
#: random_coverage_instance(n, 1), hashed as the revenue reports above. The
#: n = 15 assignment LP has a fractional optimum, so its rounding draws count.
PINNED_COVERAGE_DIGESTS = {
    8: "e661074c4d24e999882e44569b89160debcde9c3e108e344de21204d3a29df0f",
    15: "f0a365036e83d43f177a94df540ae840eef16026d63928b0a2f3fdc4bd9f6c2a",
    20: "6773f32e2e9ca98a79003bfc6f73395cea714326e5f8cc39158e86705fa8b595",
}


@pytest.mark.parametrize("n", sorted(PINNED_COVERAGE_DIGESTS))
def test_seeded_coverage_reports_are_pinned(n, tmp_path):
    path, out = tmp_path / "cov.json", tmp_path / "cov_report.json"
    coverage.save_coverage(generators.random_coverage_instance(n, 1), path)
    args = ["run", "coverage", "--instance", str(path), "--trials", "100", "--seed", "3",
            "--out", str(out)]
    assert main(args) == 0
    assert _report_digest(out) == PINNED_COVERAGE_DIGESTS[n]


def test_run_certify_prints_failing_layer(tmp_path, worked_policy_vector, capsys):
    pv_path = tmp_path / "pv.json"
    policy.save_policy(worked_policy_vector, pv_path)
    out = tmp_path / "certify.json"
    code = main(["certify", "--instance", str(pv_path), "--out", str(out)])
    assert code == 0
    assert "infeasible at layer 3" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["feasible"] is False
    assert report["failing_layer"] == 3
    assert [2, "9"] in report["cut"]  # the stranded layer-2 prefix {1,4}


def test_run_certify_prints_the_unnormalized_layer(tmp_path, worked_policy_vector, capsys):
    layers = list(worked_policy_vector.layers)
    layers[1] = {S: p / 2 for S, p in layers[1].items()}
    pv_path, out = tmp_path / "pv.json", tmp_path / "certify.json"
    policy.save_policy(policy.PolicyVector(4, tuple(layers)), pv_path)
    capsys.readouterr()
    assert main(["certify", "--instance", str(pv_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "certify: infeasible at layer 2 (unnormalized)\n"
    report = json.loads(out.read_text())
    assert (report["failing_layer"], report["reason"], report["layer_flows"]) == (
        2, "unnormalized", []
    )
    assert main(["report", "--report", str(out), "--instance", str(pv_path)]) == 0


def test_certify_report_check_recomputes_the_layer_flows(tmp_path, capsys):
    pv_path, out = tmp_path / "pv.json", tmp_path / "certify.json"
    policy.save_policy(generators.random_policy_mixture(6, 5, 1), pv_path)
    check = ["report", "--report", str(out), "--instance", str(pv_path)]
    assert main(["certify", "--instance", str(pv_path), "--out", str(out)]) == 0
    assert main(check) == 0
    data = json.loads(out.read_text())
    for edit in (lambda flows: flows[2].update(flow=0.75), lambda flows: flows.pop()):
        tampered = json.loads(json.dumps(data))
        edit(tampered["layer_flows"])
        out.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert main(check) == 2
        assert capsys.readouterr().out.strip() == "report INVALID: layer flow mismatch"


def test_run_coverage(tmp_path):
    cov = tmp_path / "cov.json"
    main(["gen", "--kind", "coverage", "--n", "6", "--seed", "4", "--out", str(cov)])
    out = tmp_path / "cov_report.json"
    code = main(
        ["run", "coverage", "--instance", str(cov), "--trials", "40",
         "--seed", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    ci = coverage.load_coverage(cov)
    order = core.order_from_external(report["permutation"])
    assert coverage.clicks(ci, order) == report["clicks"]
    assert report["lp_value"] >= report["clicks"] - 1e-6


#: A coverage report's LP value edited: halved below its clicks, or raised
#: above the two types with a nonempty interest set (but not above n = 4);
#: or its click count edited below the LP value.
COVERAGE_TAMPERING = {
    "halved-lp": ("lp_value", lambda v: v / 2, "clicks above the LP value"),
    "lp-above-interested": (
        "lp_value", lambda v: v + 0.5, "LP value above the number of types with an interest"
    ),
    "click-count": ("clicks", lambda v: v - 1, "click count mismatch"),
}


@pytest.mark.parametrize("case", sorted(COVERAGE_TAMPERING))
def test_coverage_report_check_bounds_the_lp_value(case, tmp_path, capsys):
    """Clicks are at most the LP value, and the LP value is at most the
    number of types with a nonempty interest set, since y_k <= 0 when P_k
    is empty; the clicks re-count."""
    path, out = tmp_path / "cov.json", tmp_path / "cov_report.json"
    coverage.save_coverage(coverage.CoverageInstance(4, (0b0001, 0, 0b0110, 0)), path)
    assert main(["run", "coverage", "--instance", str(path), "--out", str(out)]) == 0
    check = ["report", "--report", str(out), "--instance", str(path)]
    assert main(check) == 0
    data = json.loads(out.read_text())
    assert data["clicks"] == 2 and data["lp_value"] == pytest.approx(2.0, abs=1e-9)
    key, edit, expected = COVERAGE_TAMPERING[case]
    data[key] = edit(data[key])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(check) == 2
    assert capsys.readouterr().out.strip() == f"report INVALID: {expected}"


@pytest.mark.parametrize("algo", ["greedy", "certify"])
def test_report_validation_roundtrip(algo, appendix_c_path, tmp_path):
    instance = appendix_c_path
    if algo == "certify":
        instance = str(tmp_path / "policy.json")
        policy.save_policy(generators.random_policy_mixture(6, 5, 1), instance)
    out = tmp_path / f"{algo}.json"
    command = ["certify"] if algo == "certify" else ["run", algo]
    main([*command, "--instance", instance, "--out", str(out)])
    assert main(["report", "--report", str(out), "--instance", instance]) == 0
    # tamper with the reported result: re-validation must fail with exit 2
    data = json.loads(out.read_text())
    if algo == "certify":
        data["feasible"] = not data["feasible"]
    else:
        data["engagement"] += 0.01
    out.write_text(json.dumps(data))
    assert main(["report", "--report", str(out), "--instance", instance]) == 2


OPTIMUM_TAMPERING = {
    "halved-and-reversed": (
        "optimum mismatch; engagement above the optimum; engagement ratio mismatch"
    ),
    "halved-optimum": "optimum mismatch",
    "halved-ratio": "engagement ratio mismatch",
    "raised-revenue": "revenue mismatch",
    "unknown-algo": "unknown report algo 'ranking'",
    "worse-optimum": "engagement above the optimum",
}


@pytest.mark.parametrize("case", sorted(OPTIMUM_TAMPERING))
def test_report_checks_the_reported_optimum(case, tmp_path, capsys):
    """A greedy report's optimum must re-evaluate, bound its engagement and
    give its ratio; its revenue must re-evaluate and its algo be known."""
    path, out = str(tmp_path / "mnl.json"), tmp_path / "greedy.json"
    main(["gen", "--kind", "mnl", "--n", "5", "--seed", "1", "--out", path])
    assert main(["run", "greedy", "--instance", path, "--out", str(out)]) == 0
    assert main(["report", "--report", str(out), "--instance", path]) == 0
    data = json.loads(out.read_text())
    reversed_order = data["opt_permutation"][::-1]
    if case == "halved-and-reversed":
        data["opt_engagement"] /= 2
        data["opt_permutation"] = reversed_order
    elif case == "halved-optimum":
        data["opt_engagement"] /= 2
    elif case == "halved-ratio":
        data["engagement_ratio"] /= 2
    elif case == "raised-revenue":
        data["revenue"] += 0.01
    elif case == "unknown-algo":
        data["algo"] = "ranking"
    else:  # a self-consistent optimum that greedy beats
        worse = core.engagement(core.load_instance(path), core.order_from_external(reversed_order))
        assert worse < data["engagement"]
        data.update(opt_permutation=reversed_order, opt_engagement=worse,
                    engagement_ratio=data["engagement"] / worse)
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--report", str(out), "--instance", path]) == 2
    assert capsys.readouterr().out.strip() == f"report INVALID: {OPTIMUM_TAMPERING[case]}"


def test_oracle_report_check_applies_the_floor(tmp_path, capsys):
    """An oracle report records its floor; a revenue witness below it, or a
    reachable floor called infeasible, is rejected, and so is an optimum
    whose value its witness does not give."""
    path, out = str(tmp_path / "mnl.json"), tmp_path / "oracle.json"
    main(["gen", "--kind", "mnl", "--n", "4", "--seed", "1", "--out", path])
    inst = core.load_instance(path)
    floor = oracle.brute_force_engagement_opt(inst).best_value
    argv = ["oracle", "--instance", path, "--threshold", repr(floor), "--out", str(out)]
    assert main(argv) == 0
    assert main(["report", "--report", str(out), "--instance", path]) == 0
    data = json.loads(out.read_text())
    assert data["threshold"] == floor
    for key, expected in (
        ("engagement_opt", "engagement optimum mismatch"),
        ("revenue_opt", "revenue optimum mismatch"),
    ):
        tampered = json.loads(json.dumps(data))
        tampered[key]["value"] += 0.01
        out.write_text(json.dumps(tampered))
        capsys.readouterr()
        assert main(["report", "--report", str(out), "--instance", path]) == 2
        assert capsys.readouterr().out.strip() == f"report INVALID: {expected}"
    free = oracle.brute_force_revenue_opt(inst.with_threshold(0.0))
    assert core.engagement(inst, free.best_witness) < floor - 1e-9  # the floor binds
    data["revenue_opt"].update(
        value=free.best_value, permutation=core.order_to_external(free.best_witness)
    )
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--report", str(out), "--instance", path]) == 2
    expected = "report INVALID: revenue optimum outside the engagement floor"
    assert capsys.readouterr().out.strip() == expected
    # a reachable floor reported as infeasible is rejected too
    data["revenue_opt"] = {"infeasible": "no permutation reaches the floor"}
    out.write_text(json.dumps(data))
    assert main(["report", "--report", str(out), "--instance", path]) == 2
    expected = "report INVALID: engagement optimum reaches the floor called infeasible"
    assert capsys.readouterr().out.strip() == expected
    # an unreachable floor is infeasible, and its report validates
    argv[argv.index("--threshold") + 1] = repr(floor + 1e-6)
    assert main(argv) == 0
    assert set(json.loads(out.read_text())["revenue_opt"]) == {"infeasible"}
    assert main(["report", "--report", str(out), "--instance", path]) == 0


def test_revenue_report_check_names_every_mismatching_trial(appendix_c_path, tmp_path, capsys):
    out = tmp_path / "rev.json"
    run = ["run", "revenue", "--instance", appendix_c_path, "--trials", "30", "--factor", "0.632"]
    assert main(run + ["--out", str(out)]) == 0
    assert main(["report", "--report", str(out), "--instance", appendix_c_path]) == 0
    data = json.loads(out.read_text())
    perms = [t["permutation"] for t in data["per_seed"]]
    first = next(i for i, p in enumerate(perms) if perms.count(p) > 1)
    repeat = perms.index(perms[first], first + 1)  # same order, so a shared evaluation
    data["per_seed"][first]["engagement"] += 0.01
    data["per_seed"][repeat]["revenue"] -= 0.01
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--report", str(out), "--instance", appendix_c_path]) == 2
    expected = f"report INVALID: trial {first} mismatch; trial {repeat} mismatch"
    assert capsys.readouterr().out.strip() == expected


#: One edit of a revenue report's aggregates each: the key (dotted into
#: `best`), the new value from the old, and the line `report` prints for it.
#: The report's floor is 0, so its beta ratios read "inf".
REVENUE_TAMPERING = {
    "trial-count": ("trials", lambda v: v + 1, "trials mismatch"),
    "no-trials": ("per_seed", lambda v: [], "no trials"),
    "mean-revenue": ("mean_revenue", lambda v: 3 * v, "mean_revenue mismatch"),
    "mean-engagement": ("mean_engagement", lambda v: 1.01 * v, "mean_engagement mismatch"),
    "stderr-revenue": ("stderr_revenue", lambda v: v / 2, "stderr_revenue mismatch"),
    "stderr-engagement": ("stderr_engagement", lambda v: 0.0, "stderr_engagement mismatch"),
    "alpha-ratio": ("alpha_ratio", lambda v: 9, "alpha_ratio mismatch"),
    "alpha-ratio-inf": ("alpha_ratio", lambda v: "inf", "alpha_ratio mismatch"),
    "beta-ratio-spelling": ("beta_ratio", lambda v: "Infinity", "beta_ratio mismatch"),
    "worst-alpha": ("worst_alpha", lambda v: 1.01 * v, "worst_alpha mismatch"),
    "worst-beta": ("worst_beta", lambda v: 1e300, "worst_beta mismatch"),
    "best-revenue": ("best.revenue", lambda v: 123, "best.revenue mismatch"),
    "best-permutation": ("best.permutation", lambda v: [1, 2, 3, 4, 5],
                         "best.permutation mismatch"),
    "revenue-ok": ("revenue_ok", lambda v: not v, "revenue_ok mismatch"),
    "engagement-ok": ("engagement_ok", lambda v: 1, "engagement_ok mismatch"),
    "scaled-value": ("scaled_value", lambda v: v / 0.632, "scaled_value mismatch"),
}


@pytest.mark.parametrize("case", sorted(REVENUE_TAMPERING))
def test_revenue_report_check_recomputes_the_aggregates(case, tmp_path, capsys):
    """Every aggregate of a revenue report follows from its trials, its LP
    value, factor and floor; `report` recomputes each one."""
    path, out = tmp_path / "mnl.json", tmp_path / "rev.json"
    core.save_instance(
        generators.random_instance("mnl", 5, 1, full_mass=True, with_payments=True), path
    )
    argv = ["run", "revenue", "--instance", str(path), "--trials", "50", "--factor", "0.632"]
    assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
    check = ["report", "--report", str(out), "--instance", str(path)]
    assert main(check) == 0
    data = json.loads(out.read_text())
    assert data["beta_ratio"] == data["worst_beta"] == "inf"
    key, edit, expected = REVENUE_TAMPERING[case]
    *path, last = key.split(".")
    node = data
    for k in path:
        node = node[k]
    node[last] = edit(node[last])
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(check) == 2
    assert capsys.readouterr().out.strip() == f"report INVALID: {expected}"


def test_gen_and_run_coverage_at_n_1(tmp_path):
    cov = str(tmp_path / "cov1.json")
    assert main(["gen", "--kind", "coverage", "--n", "1", "--out", cov]) == 0
    assert main(["run", "coverage", "--instance", cov, "--trials", "5"]) == 0


def test_missing_file_is_an_error(tmp_path):
    assert main(["run", "greedy", "--instance", str(tmp_path / "nope.json")]) == 1


#: Inputs past a size cap, built only for their own case: gen kind, n, pipeline.
OVERSIZED_INPUTS = {
    "revenue-above-the-lp-cap": ("mnl", 13, "revenue"),
    "coverage-above-the-lp-cap": ("coverage", 51, "coverage"),
}


def _malformed_inputs(tmp_path, case):
    if case in OVERSIZED_INPUTS:
        kind, n, algo = OVERSIZED_INPUTS[case]
        path = str(tmp_path / "oversized.json")
        main(["gen", "--kind", kind, "--n", str(n), "--out", path])
        return ["run", algo, "--instance", path]
    general = tmp_path / "general.json"
    interest = tmp_path / "interest.json"
    explicit = tmp_path / "explicit.json"
    truncated = tmp_path / "truncated.json"
    main(["gen", "--kind", "mnl", "--n", "3", "--seed", "1", "--out", str(general)])
    main(["gen", "--kind", "coverage", "--n", "3", "--seed", "1", "--out", str(interest)])
    main(["gen", "--kind", "explicit", "--n", "3", "--seed", "1", "--out", str(explicit)])
    truncated.write_text(general.read_text()[:40])
    no_permutation = tmp_path / "no_permutation.json"
    no_permutation.write_text(json.dumps({"algo": "greedy"}))
    array_report = tmp_path / "array_report.json"
    array_report.write_text(json.dumps([{"algo": "greedy"}]))
    empty_policy = tmp_path / "empty_policy.json"
    empty_policy.write_text("[]")
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(
        {"n": 0, "lambda": [], "r": [], "click_model": {"type": "mnl", "weights": [], "w0": 1.0}}
    ))
    empty_interest = tmp_path / "empty_interest.json"
    empty_interest.write_text(json.dumps({"n": 0, "interest_sets": []}))
    out = str(tmp_path / "out.json")
    greedy, oracle_, run_coverage = ("run", "greedy"), ("oracle",), ("run", "coverage")
    edited = {}
    for name, command, source, keys, value in (
        ("nan-lambda", greedy, general, ("lambda", 0), math.nan),
        ("infinite-K", oracle_, general, ("K",), math.inf),
        ("nan-payment", oracle_, general, ("r", 0, 0), math.nan),
        ("nan-mnl-weight", oracle_, general, ("click_model", "weights", 0), math.nan),
        ("ill-typed-n", greedy, general, ("n",), "three"),
        ("ill-typed-lambda", greedy, general, ("lambda",), 0.5),
        ("ill-typed-mnl-weights", greedy, general, ("click_model", "weights"), 1.0),
        ("ill-typed-interest-sets", run_coverage, interest, ("interest_sets",), 3),
        ("short-lambda", greedy, general, ("lambda",), [0.5, 0.5]),
        ("non-square-r", greedy, general, ("r", 0), [0.0, 0.0]),
        ("negative-payment", greedy, general, ("r", 2, 0), -1.0),
        ("negative-K", greedy, general, ("K",), -1.0),
        ("negative-T", greedy, general, ("T",), -0.5),
        ("unknown-model-type", greedy, general, ("click_model", "type"), "logit"),
        ("mnl-weight-count", greedy, general, ("click_model", "weights"), [1.0, 2.0]),
        ("coverage-cover-count", greedy, general, ("click_model",),
         {"type": "coverage", "weights": [1.0, 1.0], "covers": [[0], [1]]}),
        ("coverage-unknown-element", greedy, general, ("click_model",),
         {"type": "coverage", "weights": [1.0], "covers": [[0], [0], [2]]}),
        ("explicit-mask-outside", greedy, explicit, ("click_model", "table", "8"), 1.0),
        ("per-patience-count", greedy, explicit, ("click_model", "per_patience"), []),
        ("too-few-interest-sets", run_coverage, interest, ("interest_sets",), [[1]]),
    ):
        data = json.loads(source.read_text())
        *head, last = keys
        node = data
        for key in head:
            node = node[key]
        node[last] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
        edited[name] = [*command, "--instance", str(path)]
    partial = tmp_path / "partial_table.json"
    data = json.loads(explicit.read_text())
    tables = data["click_model"].get("per_patience") or [data["click_model"]["table"]]
    for table in tables:
        del table["6"]
    partial.write_text(json.dumps(data))
    return {
        **edited,
        "revenue-on-interest-sets": ["run", "revenue", "--instance", str(interest)],
        "coverage-on-general": ["run", "coverage", "--instance", str(general)],
        "certify-on-general": ["certify", "--instance", str(general)],
        "empty-policy": ["certify", "--instance", str(empty_policy)],
        "truncated-json": ["run", "greedy", "--instance", str(truncated)],
        "report-without-permutation": [
            "report", "--report", str(no_permutation), "--instance", str(general)
        ],
        "report-not-an-object": [
            "report", "--report", str(array_report), "--instance", str(general)
        ],
        "revenue-on-n-zero": ["run", "revenue", "--instance", str(empty)],
        "interest-n-zero": ["run", "coverage", "--instance", str(empty_interest)],
        "coverage-zero-trials": ["run", "coverage", "--instance", str(interest), "--trials", "0"],
        "gen-n-zero": ["gen", "--kind", "mnl", "--n", "0", "--out", out],
        "gen-negative-n": ["gen", "--kind", "mnl", "--n", "-2", "--out", out],
        "gen-negative-seed": ["gen", "--kind", "mnl", "--n", "3", "--seed", "-1", "--out", out],
        "run-negative-seed-cg": ["run", "cg", "--instance", str(general), "--seed", "-1"],
        "run-negative-seed-revenue": ["run", "revenue", "--instance", str(general), "--seed", "-1"],
        "run-negative-seed-coverage": [
            "run", "coverage", "--instance", str(interest), "--seed", "-1"
        ],
        "partial-explicit-table": ["run", "greedy", "--instance", str(partial)],
    }[case]


#: The exact error line of each case that names one field or one cap.
MALFORMED_ERRORS = {
    "partial-explicit-table": "core: explicit table has no entry for mask 0x6",
    "ill-typed-n": "core: ill-typed key 'n' (invalid literal for int() with base 10: 'three')",
    "ill-typed-lambda": "core: ill-typed key 'lambda' ('float' object is not iterable)",
    "ill-typed-mnl-weights": "core: ill-typed key 'weights' ('float' object is not iterable)",
    "ill-typed-interest-sets": (
        "coverage: ill-typed key 'interest_sets' ('int' object is not iterable)"
    ),
    "short-lambda": "core: lambda length must equal n",
    "non-square-r": "core: r must be an n x n matrix (row = position)",
    "negative-payment": "core: negative placement payment",
    "negative-K": "core: negative per-click payment",
    "negative-T": "core: negative engagement floor",
    "unknown-model-type": "core: unknown click model type 'logit'",
    "mnl-weight-count": "core: mnl needs one weight per product",
    "coverage-cover-count": "core: coverage needs one cover set per product",
    "coverage-unknown-element": "core: cover references unknown universe element",
    "explicit-mask-outside": "core: table mask 0x8 outside ground set",
    "per-patience-count": "core: per_patience needs one table per level",
    "interest-n-zero": "coverage: n must be at least 1, got 0",
    "too-few-interest-sets": "coverage: one interest set per user type required",
    "coverage-above-the-lp-cap": "coverage: LP capped at n = 50",
    "coverage-zero-trials": "coverage: need at least one trial",
    "revenue-above-the-lp-cap": "revenue: relaxation capped at n = 12",
}


@pytest.mark.parametrize(
    "case",
    [
        "revenue-on-interest-sets",
        "coverage-on-general",
        "certify-on-general",
        "empty-policy",
        "truncated-json",
        "report-without-permutation",
        "report-not-an-object",
        "revenue-on-n-zero",
        "gen-n-zero",
        "gen-negative-n",
        "gen-negative-seed",
        "nan-lambda",
        "infinite-K",
        "nan-payment",
        "nan-mnl-weight",
        "run-negative-seed-cg",
        "run-negative-seed-revenue",
        "run-negative-seed-coverage",
        *MALFORMED_ERRORS,
    ],
)
def test_malformed_input_is_a_one_line_error(case, tmp_path, capsys):
    argv = _malformed_inputs(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("seqsub: error: ")
    assert len(err.splitlines()) == 1, err
    if case == "truncated-json":
        assert f"malformed JSON in {argv[-1]}: " in err, err
    if case in MALFORMED_ERRORS:
        assert err == f"seqsub: error: {MALFORMED_ERRORS[case]}\n", err


def test_usage_error_exits_one():
    assert main(["run", "unknown-algo", "--instance", "x"]) == 1


#: The flags each command reads beside --instance; any other flag is a usage error.
COMMAND_FLAGS = {
    "run greedy": {"--out", "--format"},
    "run cg": {"--seed", "--steps", "--samples", "--out", "--format"},
    "run revenue": {"--seed", "--trials", "--factor", "--threshold", "--out", "--format"},
    "run coverage": {"--seed", "--trials", "--out", "--format"},
    "oracle": {"--threshold", "--out", "--format"},
    "certify": {"--out", "--format"},
}
FLAG_VALUES = {
    "--seed": "1", "--steps": "3", "--samples": "8", "--trials": "5",
    "--factor": "0.632", "--threshold": "0.1", "--out": "report.json", "--format": "csv",
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_each_command_takes_only_the_flags_it_reads(command, flag, appendix_c_path, tmp_path,
                                                    capsys):
    """A flag that a command reads is accepted; any other is a one-line usage
    error, where it once was accepted and silently ignored."""
    instance = appendix_c_path
    if command == "run coverage":
        instance = str(tmp_path / "cov.json")
        main(["gen", "--kind", "coverage", "--n", "4", "--seed", "1", "--out", instance])
    elif command == "certify":
        instance = str(tmp_path / "policy.json")
        policy.save_policy(generators.random_policy_mixture(4, 3, 1), instance)
    value = str(tmp_path / FLAG_VALUES[flag]) if flag == "--out" else FLAG_VALUES[flag]
    capsys.readouterr()
    code = main([*command.split(), "--instance", instance, flag, value])
    err = capsys.readouterr().err
    if flag in COMMAND_FLAGS[command]:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (1, f"seqsub: error: unrecognized arguments: {flag} {value}\n")


@pytest.mark.parametrize("algo", ["oracle", "certify"])
def test_oracle_and_certify_have_one_spelling(algo, appendix_c_path, capsys):
    assert main(["run", algo, "--instance", appendix_c_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"seqsub run: error: argument algo: invalid choice: '{algo}'"), err
    assert len(err.splitlines()) == 1, err


def test_the_parser_is_built_once_per_process(appendix_c_path):
    for _ in range(3):
        assert main(["run", "greedy", "--instance", appendix_c_path, "--format", "csv"]) == 0
    assert cli._parser.cache_info().misses == 1


def test_csv_and_pretty_formats(appendix_c_path, tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(
        ["run", "greedy", "--instance", appendix_c_path, "--out", str(out),
         "--format", "csv"]
    ) == 0
    text = out.read_text()
    assert text.startswith("key,value")
    assert "engagement" in text
    out2 = tmp_path / "r.txt"
    assert main(
        ["run", "greedy", "--instance", appendix_c_path, "--out", str(out2),
         "--format", "pretty-table"]
    ) == 0
    assert "permutation" in out2.read_text()
    capsys.readouterr()
    assert main(["run", "greedy", "--instance", appendix_c_path, "--format", "pretty-table"]) == 0
    summary, *table = capsys.readouterr().out.splitlines()
    assert summary.startswith("greedy: ")
    assert table[0].split() == ["algo", "greedy"]
