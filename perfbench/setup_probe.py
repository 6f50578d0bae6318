"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scratch-dir>

Prints ``{"setup_s": ...}``: the seconds from before the program is
imported to the workload's pipeline being ready for its first input.
Input generation is not part of it.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

if __name__ == "__main__":
    from workloads import WORKLOADS

    name, scratch = sys.argv[1:]
    workload = WORKLOADS[name]
    pipe = workload.open(Path(scratch))
    ready = perf_counter() - START
    workload.close(pipe)
    print(json.dumps({"setup_s": ready}))
