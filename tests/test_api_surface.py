"""The public surface of the package: no public name exists only for the tests."""

import ast
import re
from pathlib import Path

import seqsub
from seqsub import core, coverage, generators, oracle, policy, revenue

SRC = Path(seqsub.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public names that only tests call, each with the reason it stays in src.
TEST_ONLY_ALLOWED = {
    "policy.sample_policy": "the README promises that certificates double as samplers",
    "coverage.as_instance": "audits coverage against the oracle; ROADMAP item 23 deletes it",
}


def public_names(path: Path) -> set[str]:
    """Module-level functions, classes and constants, plus methods, not starting with _."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def referenced(paths) -> set[str]:
    """Every name that the files read, import or look up as an attribute."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_no_public_name_is_referenced_only_by_tests():
    """A public name of a src module that tests reference must also be
    referenced by the package itself or by the benchmark. Names are matched
    by identifier, so a name shared with a used one passes."""
    callers = referenced([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    tests = referenced((ROOT / "tests").glob("*.py"))
    test_only = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module in TEST_ONLY_ALLOWED:
            continue
        for name in sorted(public_names(path)):
            qualified = f"{module}.{name}"
            if name in tests and name not in callers and qualified not in TEST_ONLY_ALLOWED:
                test_only.append(qualified)
    assert not test_only, test_only


def test_every_exception_type_is_raised():
    """Each exception class in errors.py appears in some `raise Name(...)` in
    src, so a type that nothing raises any more does not linger."""
    declared = {
        node.name
        for node in ast.parse((SRC / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    raised.add(node.exc.func.id)
    assert "SeqsubError" in declared
    assert declared <= raised, sorted(declared - raised)


def test_no_seed_tree_in_src():
    """Each pipeline run draws from one Generator, so no src module spawns
    child seeds or names SeedSequence."""
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if re.search(r"\.spawn\(|SeedSequence", path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders


def test_every_seed_is_required():
    """No src function gives a parameter named seed a default, so every
    randomized operation is called with an explicit seed."""
    defaulted = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                if any(a.arg == "seed" for a in with_default):
                    defaulted.append(f"{path.stem}.{node.name}")
    assert not defaulted, defaulted


# The README's "Size limits" table: each stage's row and the constant it names.
README_CAPS = {
    "exact optima (prefix-set DP)": oracle.MAX_BRUTE_N,
    "explicit click tables": core.MAX_EXPLICIT_N,
    "`gen --kind explicit` (tabulated)": generators.MAX_TABULATE_N,
    "revenue relaxation (explicit LP)": revenue.MAX_LP_N,
    "policy certification": policy.MAX_CERTIFY_N,
    "assignment LP (interest sets)": coverage.MAX_LP3_N,
}


def test_readme_size_caps_match_the_code():
    """Every `n <= N` cap in the README's size table is the constant the code enforces."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Size limits", 1)[1].split("\n## ", 1)[0]
    caps = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        match = re.fullmatch(r"`n <= (\d+)`", cells[1]) if len(cells) > 2 else None
        if match:
            caps[cells[0]] = int(match.group(1))
    assert caps == README_CAPS
