"""Put ``src/`` on the import path of the interpreters the tests start
(``python -m shrubstat``), as ``pythonpath`` in ``pyproject.toml`` does
for the test process, so the suite runs from a clean checkout.  Those
interpreters also turn every warning into an error, as
``filterwarnings`` does for the test process, unless PYTHONWARNINGS is
already set."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
os.environ.setdefault("PYTHONWARNINGS", "error")
