"""The README's Library example runs as written against the package.

The block documents the public API (BackendBundle, ExpansionConfig,
expand_dataset, ...); running it ties that documentation to the code.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, f"expected one python block in the README, found {len(blocks)}"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    accuracy, macro = (float(x) for x in capsys.readouterr().out.split())
    assert 0.0 <= macro <= 1.0 and 0.0 <= accuracy <= 1.0
