import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_readme_python_blocks_run(tmp_path):
    # each ```python block of README.md is a script that runs on the source
    # tree as it stands, in a fresh interpreter
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) >= 2  # the library sketch and the OFDM sketch
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for i, code in enumerate(blocks):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
        )
        assert out.returncode == 0, f"README python block {i}:\n{out.stderr}"
