"""The public surface of the package: no public name exists only for the tests."""

import ast
from pathlib import Path

import seqsub

SRC = Path(seqsub.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Public names that only tests call, each with the reason it stays in src.
TEST_ONLY_ALLOWED = {
    "oracle": "the brute-force auditors; auditing the pipelines is their job",
    "policy.sample_policy": "the README promises that certificates double as samplers",
    "coverage.as_instance": "audits coverage against the oracle; ROADMAP item 1 adds a CLI caller",
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
