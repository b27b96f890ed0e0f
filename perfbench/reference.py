"""Fixed reference program that the benchmark runs before every command.

It does the kind of work the srm commands do (start an interpreter,
import numpy, parse numbers from text, sort, run small numpy passes,
format numbers back to text) but none of srmkit's code, so no change to
srmkit moves its time.  The end-to-end times are reported in units of
its time, measured right before each command, which cancels most of the
speed changes of a shared host.  Do not change it: that would rescale
every run_wall_rel figure.
"""

import numpy as np

rng = np.random.default_rng(12345)
ranks = np.arange(1, 41, dtype=float)
check = 0.0
for _ in range(5000):
    text = ";".join(str(int(x)) for x in np.floor(5.0 * rng.pareto(1.2, 40)))
    values = sorted((float(part) for part in text.split(";")), reverse=True)
    a = np.asarray(values)
    check += float(np.sum(a >= ranks)) + float(np.min(a * ranks**1.5))
    check += len(",".join(f"{x:.9g}" for x in values))
print(check)
