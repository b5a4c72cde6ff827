"""One traced CLI process for the cli_queries workload.

    python3 bench/cli_child.py ARGS...

Runs ``dyck4d.cli.main`` exactly as the untraced run does, with spans around
the calls the CLI makes into the other modules.  Start-up (interpreter plus
import) is timed from the parent's spawn time in ``DYCK4D_BENCH_SPAWN``
(``time.monotonic``, shared by all processes on the host).  The spans go to
stderr as one line starting with ``DYCK4D-BENCH``, after the CLI's own
output, so stdout stays exactly what the CLI printed.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402
from dyck4d.cli import main  # noqa: E402

startup = time.monotonic() - float(os.environ["DYCK4D_BENCH_SPAWN"])
tracer = Tracer()
tracer.install()
code = 0
try:
    tracer.wrap("cli.main", main)()
except SystemExit as exc:
    code = exc.code
finally:
    sys.stdout.flush()
    tracer.run_probes()
    print("DYCK4D-BENCH " + json.dumps({"startup": startup, "spans": tracer.spans}),
          file=sys.stderr)
sys.exit(code)
