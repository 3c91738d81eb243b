"""The quickstart example must keep running end to end.

``examples/quickstart.py`` walks through every serving path (sharded,
quantised, online, snapshot, async frontend, shard servers, failover, WAL,
tracing) and asserts bit-identical results along the way, so running it is
a cheap guard against the example drifting from the library.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_quickstart_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "quickstart.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "remote-served results identical" in result.stdout
    assert list(tmp_path.iterdir()) == []  # leaves nothing behind
