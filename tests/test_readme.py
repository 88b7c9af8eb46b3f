"""The README's "Library quick start" block, run as it is printed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the block writes its reports under out/
    namespace = {}
    exec(compile(quick_start(), "README.md (Library quick start)", "exec"), namespace)
    records, config = namespace["records"], namespace["config"]
    assert len(records) == config.replications
    assert all(rec.error is None for rec in records)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["replications.csv", "summary.json"]
