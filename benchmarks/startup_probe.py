"""Start-up costs inside one fresh interpreter, printed as JSON.

Times ``import numpy``, then ``import quasinv.cli``, then the first
``cli.main(["analyze", "-"])`` call on the README's Pauli document with
stdin and stdout in memory. run.py starts this several times and
reports medians.
"""

import io
import json
import sys
from time import perf_counter

PAULI_DOC = '{"type": "pauli", "p": [0.1, 0.6, 0.2, 0.1]}'

t0 = perf_counter()
import numpy  # noqa: E402,F401

t1 = perf_counter()
import quasinv.cli  # noqa: E402

t2 = perf_counter()
saved = sys.stdin, sys.stdout
sys.stdin, sys.stdout = io.StringIO(PAULI_DOC), io.StringIO()
try:
    code = quasinv.cli.main(["analyze", "-"])
    t3 = perf_counter()
    out = sys.stdout.getvalue()
finally:
    sys.stdin, sys.stdout = saved
print(json.dumps({
    "import_numpy_s": t1 - t0,
    "import_quasinv_s": t2 - t1,
    "first_call_ms": (t3 - t2) * 1e3,
    "exit": code,
    "delta_mstd": json.loads(out)["delta_mstd"] if code == 0 else None,
}))
