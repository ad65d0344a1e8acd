"""Engine + CLI behavior: fixture-tree acceptance, exit codes, JSON schema."""
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze_paths, discover_files
from repro.analysis.cli import main
from repro.analysis.registry import all_rules

#: One deliberate violation per rule code (plus the engine codes), as the
#: acceptance criterion demands: the suite must flag every one of these.
VIOLATIONS = {
    "RNG001": "import numpy as np\nX = np.random.normal(0.0, 1.0)\n",
    "RNG002": "import numpy as np\nRNG = np.random.default_rng()\n",
    "RNG003": "import numpy as np\nRNG = np.random.default_rng(1234)\n",
    "RNG004": "import random\nX = random.random()\n",
    "RNG005": (
        "import time\n"
        "import numpy as np\n"
        "RNG = np.random.default_rng(time.time_ns())\n"
    ),
    "CKP001": "class A:\n    def state_dict(self):\n        return {}\n",
    "CKP002": "class B:\n    def load_state_dict(self, state):\n        pass\n",
    "SER001": "import numpy as np\nnp.savez('x.npz', a=[1])\n",
    "SER002": "import json\njson.dump({}, None)\n",
    "SER003": "HANDLE = open('x.txt', 'w')\n",
    "HYG001": "def f(x):\n    return x == 1.5\n",
    "HYG002": "def f(items=[]):\n    return items\n",
    "HYG003": "def conv_reference(x):\n    return x\n",
    "NOQ001": "X = 1  # repro: noqa[RNG001] -- nothing to suppress here\n",
    "NOQ002": "X = 1  # repro: noqa[RNG001\n",
    "AST001": "def broken(:\n",
}


@pytest.fixture
def violation_tree(tmp_path):
    root = tmp_path / "fixture_tree"
    root.mkdir()
    for code, source in VIOLATIONS.items():
        (root / f"case_{code.lower()}.py").write_text(source)
    return root


def test_fixture_tree_trips_every_rule(violation_tree):
    report = analyze_paths([violation_tree], contract="off")
    found = {finding.code for finding in report.findings}
    assert set(VIOLATIONS) <= found
    assert report.exit_code() == 1


def test_cli_exits_nonzero_on_fixture_tree(violation_tree, capsys):
    assert main([str(violation_tree)]) == 1
    out = capsys.readouterr().out
    for code in VIOLATIONS:
        assert code in out


def test_cli_json_report_schema(violation_tree, capsys):
    assert main([str(violation_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["files_scanned"] == len(VIOLATIONS)
    findings = payload["findings"]
    assert findings == sorted(
        findings, key=lambda f: (f["path"], f["line"], f["column"], f["code"])
    )
    assert {"path", "line", "column", "code", "message"} <= set(findings[0])


def test_cli_select_filters_codes(violation_tree, capsys):
    assert main([str(violation_tree), "--format", "json", "--select", "RNG001"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {finding["code"] for finding in payload["findings"]} == {"RNG001"}


def test_cli_rejects_unknown_select_code(capsys):
    assert main(["src", "--select", "ZZZ999"]) == 2


def test_cli_requires_paths(capsys):
    assert main([]) == 2


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "does-not-exist")]) == 2


def test_cli_list_rules_table(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out
    assert "NOQ001" in out and "CKP003" in out


def test_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "clean.py").write_text("def double(x):\n    return 2 * x\n")
    assert main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_discover_files_deduplicates_and_sorts(tmp_path):
    (tmp_path / "b.py").write_text("B = 2\n")
    (tmp_path / "a.py").write_text("A = 1\n")
    files = discover_files([tmp_path, tmp_path / "a.py"])
    assert [path.name for path in files] == ["a.py", "b.py"]


def test_discover_files_raises_on_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_files([tmp_path / "missing"])


def test_one_violation_per_rule_inventory_is_complete():
    """Every registered rule code has a fixture violation above."""
    assert {rule.code for rule in all_rules()} <= set(VIOLATIONS)


def test_suppressed_fixture_tree_is_clean(tmp_path):
    source = textwrap.dedent(
        """
        import numpy as np

        RNG = np.random.default_rng()  # repro: noqa[RNG002] -- fixture hatch
        """
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source)
    report = analyze_paths([path], contract="off")
    assert report.findings == []


def test_report_paths_are_stable_strings(violation_tree):
    report = analyze_paths([violation_tree], contract="off")
    for finding in report.findings:
        assert Path(finding.path).name.startswith("case_")
