"""End-to-end CLI behavior: gen, run, certify, oracle, report, exit codes."""

import json
import math

import pytest

from seqsub import core, coverage, generators, oracle, policy
from seqsub.cli import main
from seqsub.fixtures import APPENDIX_C_INSTANCE, EXAMPLE_1_INSTANCE, fixture_path


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
    assert all(len(s) >= 1 for s in ci.interest_sets)


def test_run_oracle_reports_best_revenue(appendix_c_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "oracle", "--instance", appendix_c_path, "--out", str(out)]
    )
    assert code == 0
    assert "47.75" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["revenue_opt"]["value"] == pytest.approx(47.75, abs=1e-9)


def test_run_greedy_reports_ratio(example_1_path, tmp_path):
    out = tmp_path / "greedy.json"
    assert main(["run", "greedy", "--instance", example_1_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["permutation"] == [2, 1]
    assert report["engagement_ratio"] == pytest.approx(1.1 / 2.1, abs=1e-9)


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


@pytest.mark.parametrize("algo", ["greedy", "certify"])
def test_report_validation_roundtrip(algo, appendix_c_path, tmp_path):
    instance = appendix_c_path
    if algo == "certify":
        instance = str(tmp_path / "policy.json")
        policy.save_policy(generators.random_policy_mixture(6, 5, 1), instance)
    out = tmp_path / f"{algo}.json"
    main(["run", algo, "--instance", instance, "--out", str(out)])
    assert main(["report", "--report", str(out), "--instance", instance]) == 0
    # tamper with the reported result: re-validation must fail with exit 2
    data = json.loads(out.read_text())
    if algo == "certify":
        data["feasible"] = not data["feasible"]
    else:
        data["engagement"] += 0.01
    out.write_text(json.dumps(data))
    assert main(["report", "--report", str(out), "--instance", instance]) == 2


def test_gen_and_run_coverage_at_n_1(tmp_path):
    cov = str(tmp_path / "cov1.json")
    assert main(["gen", "--kind", "coverage", "--n", "1", "--out", cov]) == 0
    assert main(["run", "coverage", "--instance", cov, "--trials", "5"]) == 0


def test_missing_file_is_an_error(tmp_path):
    assert main(["run", "greedy", "--instance", str(tmp_path / "nope.json")]) == 1


def _malformed_inputs(tmp_path):
    general = tmp_path / "general.json"
    interest = tmp_path / "interest.json"
    truncated = tmp_path / "truncated.json"
    main(["gen", "--kind", "mnl", "--n", "3", "--seed", "1", "--out", str(general)])
    main(["gen", "--kind", "coverage", "--n", "3", "--seed", "1", "--out", str(interest)])
    truncated.write_text(general.read_text()[:40])
    no_permutation = tmp_path / "no_permutation.json"
    no_permutation.write_text(json.dumps({"algo": "greedy"}))
    array_report = tmp_path / "array_report.json"
    array_report.write_text(json.dumps([{"algo": "greedy"}]))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(
        {"n": 0, "lambda": [], "r": [], "click_model": {"type": "mnl", "weights": [], "w0": 1.0}}
    ))
    out = str(tmp_path / "out.json")
    non_finite = {}
    for name, keys, value in (
        ("nan-lambda", ("lambda", 0), math.nan),
        ("infinite-K", ("K",), math.inf),
        ("nan-payment", ("r", 0, 0), math.nan),
        ("nan-mnl-weight", ("click_model", "weights", 0), math.nan),
    ):
        data = json.loads(general.read_text())
        *head, last = keys
        node = data
        for key in head:
            node = node[key]
        node[last] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
        non_finite[name] = str(path)
    return {
        "revenue-on-interest-sets": ["run", "revenue", "--instance", str(interest)],
        "coverage-on-general": ["run", "coverage", "--instance", str(general)],
        "certify-on-general": ["certify", "--instance", str(general)],
        "truncated-json": ["run", "greedy", "--instance", str(truncated)],
        "report-without-permutation": [
            "report", "--report", str(no_permutation), "--instance", str(general)
        ],
        "report-not-an-object": [
            "report", "--report", str(array_report), "--instance", str(general)
        ],
        "revenue-on-n-zero": ["run", "revenue", "--instance", str(empty)],
        "gen-n-zero": ["gen", "--kind", "mnl", "--n", "0", "--out", out],
        "gen-negative-n": ["gen", "--kind", "mnl", "--n", "-2", "--out", out],
        "gen-negative-seed": ["gen", "--kind", "mnl", "--n", "3", "--seed", "-1", "--out", out],
        "nan-lambda": ["run", "greedy", "--instance", non_finite["nan-lambda"]],
        "infinite-K": ["oracle", "--instance", non_finite["infinite-K"]],
        "nan-payment": ["oracle", "--instance", non_finite["nan-payment"]],
        "nan-mnl-weight": ["oracle", "--instance", non_finite["nan-mnl-weight"]],
    }


@pytest.mark.parametrize(
    "case",
    [
        "revenue-on-interest-sets",
        "coverage-on-general",
        "certify-on-general",
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
    ],
)
def test_malformed_input_is_a_one_line_error(case, tmp_path, capsys):
    argv = _malformed_inputs(tmp_path)[case]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("seqsub: error: ")
    assert len(err.splitlines()) == 1, err
    if case == "truncated-json":
        assert f"malformed JSON in {argv[-1]}: " in err, err


def test_usage_error_exits_one():
    assert main(["run", "unknown-algo", "--instance", "x"]) == 1


def test_csv_and_pretty_formats(appendix_c_path, tmp_path):
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


def test_fixture_files_ship_with_the_package():
    for name in (APPENDIX_C_INSTANCE, EXAMPLE_1_INSTANCE):
        inst = core.load_instance(fixture_path(name))
        assert inst.n in (2, 4)
