"""The package's public surface: the README quick start runs, and every
name ``gjc`` exports is used by the CLI, the acceptance suite or that
quick start."""

import re
from pathlib import Path

import gjc

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The ```python block under "Library quick start" in README.md."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "README quick start has no python block"
    return match.group(1)


def test_readme_quick_start_runs():
    exec(compile(quick_start(), "README.md quick start", "exec"), {})


def test_every_export_is_used():
    users = "\n".join(
        [
            (ROOT / "src" / "gjc" / "cli.py").read_text(),
            (ROOT / "tests" / "test_acceptance.py").read_text(),
            quick_start(),
        ]
    )
    unused = [name for name in gjc.__all__ if not re.search(rf"\b{re.escape(name)}\b", users)]
    assert unused == []
