"""Set-up of one benchmark run in a fresh interpreter, timed by run.py.

    python3 bench/setup_child.py <workload>

Imports the package from the checkout's src/, builds the systems the workload
shares (float-boundary only) and prints "ready", all under a
``workload.Meter``.  Then it prints, as JSON, the seconds it spent in
calibration loops before "ready" and the meter's speed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workload  # noqa: E402  (no package import: it only defines jobs)

meter = workload.Meter()
meter.start()

import hermite_chihara  # noqa: E402
import hermite_chihara.cli  # noqa: E402,F401

workload.build_pool(hermite_chihara, sys.argv[1])
print("ready", flush=True)
meter.stop()
calibrating_s = sum(meter.loops[: -workload.END_LOOPS])
print(json.dumps({"calibrating_s": calibrating_s, "speed": meter.speed}))
