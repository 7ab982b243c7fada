"""Every demo script runs to completion against the installed sources and
prints exactly the output pinned for it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: SHA-256 of each demo's standard output.
DEMO_STDOUT_SHA256 = {
    "clutching_degrees.py": "ad87ed03d73feed8322a51ff3724032dad39a9b523732c11def3a91049d09846",
    "inversion_on_characteristic_classes.py": (
        "fbed7ba4fcd177fd6741aa4c18b3dbd8115452338bed070af6e020b34ba8f0e1"
    ),
    "so3_component_homology.py": (
        "b0f0794b31391a4f796f5591ff61b9605c4cd59bed81eff025f6c7c4a4e65cf2"
    ),
    "surface_k_theory.py": "0d63cc237f784921b439528f7da504696b4755f58717c4a5278035bc76c51c94",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name]
