"""`import corematch` loads no code that its queries do not run."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# dataclasses (with inspect, which it imports) would generate and exec
# methods for each class at import; the brute-force desk oracles and
# networkx serve only the CLI's oracle commands and the tests
UNLOADED = ("dataclasses", "inspect", "corematch.oracle", "networkx")


def test_import_loads_no_dataclass_machinery_oracle_or_networkx():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import corematch; "
        f"print(*(m for m in {UNLOADED!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == []
