"""CLI behaviour and the repository-level acceptance checks."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

FLAKE8_LINE = re.compile(r"^[^:]+:\d+:\d+: [A-Z]+\d{3} .+$")


def run_cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "tools")
    return subprocess.run(
        [sys.executable, "-m", "repro_lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def mini_repo(tmp_path: Path) -> Path:
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
    src = tmp_path / "src"
    src.mkdir()
    (src / "clean.py").write_text(
        "import numpy as np\n\n\ndef f(rng):\n    return rng.random(3)\n"
    )
    return tmp_path


class TestCli:
    def test_clean_repo_exits_zero(self, mini_repo):
        proc = run_cli("src", cwd=mini_repo)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert "clean" in proc.stderr

    def test_violation_exits_one_with_flake8_output(self, mini_repo):
        (mini_repo / "src" / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        proc = run_cli("src", cwd=mini_repo)
        assert proc.returncode == 1
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 1
        assert FLAKE8_LINE.match(lines[0]), lines[0]
        assert lines[0].startswith("src/bad.py:2:1: DET001 ")

    def test_select_narrows_rules(self, mini_repo):
        (mini_repo / "src" / "bad.py").write_text(
            "import numpy as np\nnp.random.seed(0)\n"
        )
        proc = run_cli("src", "--select", "SHARD", cwd=mini_repo)
        assert proc.returncode == 0, proc.stdout

    def test_no_paths_is_usage_error(self, mini_repo):
        proc = run_cli(cwd=mini_repo)
        assert proc.returncode == 2

    def test_missing_path_is_usage_error(self, mini_repo):
        proc = run_cli("no/such/dir", cwd=mini_repo)
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_unknown_select_is_usage_error(self, mini_repo):
        proc = run_cli("src", "--select", "NOPE", cwd=mini_repo)
        assert proc.returncode == 2

    def test_list_rules_catalogue(self, mini_repo):
        proc = run_cli("--list-rules", cwd=mini_repo)
        assert proc.returncode == 0
        for code in ("DET001", "DET002", "DET003", "DET004", "SHARD001", "API001", "LNT002"):
            assert code in proc.stdout


class TestRepositoryGate:
    """What the CI job actually enforces."""

    def test_repository_lints_clean(self):
        proc = run_cli("src", "tests", "benchmarks", "tools", cwd=REPO_ROOT)
        assert proc.returncode == 0, f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"

    def test_gate_fails_on_injected_violations(self, lint):
        """The fixture proves the gate bites: same config, findings found.

        The repository exclude keeps the fixture out of the clean run
        above; relinting its source under a src/ path must reproduce
        every seeded violation class.
        """
        source = (FIXTURES / "injected_violation.py").read_text()
        findings = lint({"src/injected.py": source})
        found = {f.code for f in findings}
        assert {"DET001", "DET002", "DET003"} <= found

    def test_gate_fails_via_cli_on_injected_violation(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
        src = tmp_path / "src"
        src.mkdir()
        (src / "injected.py").write_text((FIXTURES / "injected_violation.py").read_text())
        proc = run_cli("src", cwd=tmp_path)
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
