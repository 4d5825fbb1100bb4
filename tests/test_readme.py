"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order_in_one_namespace():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 3  # the library, dropout and calibration examples
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
