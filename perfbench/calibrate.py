"""Fixed reference work whose run time tracks the machine's current speed.

    python3 perfbench/calibrate.py

Imports numpy and runs a fixed mix of the kinds of work gridshock does:
an interpreter-bound loop, small-array numpy calls in a loop (as in the
per-slot rollout), and large vectorised array passes. It never imports
gridshock, so no change to the program can change its time. run.py runs it
next to the workload's commands to tell a slower program from a slower
machine.
"""

import numpy as np

table = {}
for i in range(150_000):
    table[i % 1000] = table.get(i % 1000, 0) + i

rng = np.random.default_rng(0)
a = np.ones(100)
idx = np.arange(100) % 7
for _ in range(15_000):
    a = a * 0.5 + 0.5
    acc = np.zeros(100)
    np.add.at(acc, idx, a)
    rng.poisson(a)

x = np.arange(100_000, dtype=float)
for _ in range(150):
    x = np.sqrt(x * x + 1.0) - 0.5
