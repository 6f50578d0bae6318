"""Make one pass's inputs for a workload (a child of ``run.py``).

    python3 perfbench/gen_inputs.py <workload> <seed>

Writes the inputs to standard output as a count followed by
name/array pairs, each in the ``.npy`` format.  Generating in a child
process keeps the generator's time and memory out of the measured
process, and the pipe keeps the bytes off the disk.
"""

import sys
from pathlib import Path

import numpy as np
from numpy.lib.format import write_array

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1:]
    arrays = WORKLOADS[name].generate(int(seed))
    out = sys.stdout.buffer
    write_array(out, np.array(len(arrays)))
    for key, value in arrays.items():
        write_array(out, np.array(key))
        write_array(out, np.asarray(value))
