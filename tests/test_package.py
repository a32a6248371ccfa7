"""Packaging guards: what importing discflux pulls in."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    # numpy and PyYAML are the only runtime dependencies; importing scipy
    # once took more than half the time of `import discflux`
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import discflux; "
            "assert discflux.__file__.startswith(sys.argv[1]), discflux.__file__; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
