"""Run one photocount CLI call in this fresh process, with spans.

    python3 perfbench/traced_cli.py <photocount argv...>

Times `import photocount.cli` and counts the modules it adds (modules this
script loaded first, such as json and contextlib, are not counted), wraps
the public functions of every layer, calls `photocount.cli.main(argv)` with
stdout captured, and at exit prints one JSON document: exit code, captured
output, import time and module count, and the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from spans import Tracer

_MODULES = len(sys.modules)
_START = time.perf_counter()
import photocount.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _START
IMPORT_MODULES = len(sys.modules) - _MODULES


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install("photocount")
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            code = photocount.cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.write(json.dumps({
        "returncode": code,
        "stdout": captured.getvalue(),
        "import_s": IMPORT_S,
        "import_modules": IMPORT_MODULES,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
