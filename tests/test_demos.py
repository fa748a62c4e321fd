import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; demos 01 and 04 print tie-broken optima
STDOUT_SHA256 = {
    "01_separation.py": "99c07eee28c6666ee55a45ce72801a9d5d2111aa13c0d82ccf9e47fceac13f22",
    "02_flawed_scan.py": "45200d86afa7cffb7f8a11d56ef51935bc26a09fcc46f1511fb63bbdaf4f4cba",
    "03_extended_formulation.py": "a39cff66260e2b06989b6c542d5c430a7aa9a22779f9f74da26e827f57280a14",
    "04_matching_and_cycles.py": "6c599e15649ef4e3bf9c3542a010774874c45f6fad5c76ff06c616438831d55f",
}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[demo.name]
