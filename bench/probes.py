"""Edge probes of known defects, apart from the timed workloads.

    python3 bench/probes.py

Runs every probe in ``workload.PROBES`` once, untimed, checks it with the job
oracle and prints one line per probe.  Exits 1 while any probe fails, so a fix
of the defect it probes shows as exit 0.
"""

import sys

import oracle
import run
import workload as wl


def main() -> int:
    hc = run.load_package()
    results = wl.run_probes(hc, oracle.check)
    for name, error in results:
        print(f"probe {name}: " + ("pass" if error is None else f"FAIL {error}"))
    return 1 if any(error is not None for _, error in results) else 0


if __name__ == "__main__":
    sys.exit(main())
