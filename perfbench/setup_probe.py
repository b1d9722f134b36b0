"""Time warpflow's set-up in a fresh process: import, build the scenarios, their bounds.

Usage: python3 perfbench/setup_probe.py '<json list of [scenario, kwargs, with_bounds]>'
Prints one JSON object {"setup_s": seconds}.  perfbench/run.py starts it.
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from warpflow import scenarios

    for name, kwargs, with_bounds in json.loads(sys.argv[1]):
        spec = scenarios.build_scenario(name, **kwargs)
        if with_bounds:
            scenarios.scenario_bounds(spec)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
