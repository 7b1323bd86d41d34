"""Child processes started by the tests (``python -m delaysym``) import the
package from this checkout's ``src``, as the test process itself does."""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
