"""Import hookexp from this checkout's src, so that `pytest` runs without an
install: first on sys.path here, and first on PYTHONPATH for the CLI
subprocesses that the tests start."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
