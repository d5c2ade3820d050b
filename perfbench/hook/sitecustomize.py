"""Starts the benchmark's probe in every Python process of a benchmark run.

run.py puts this directory on PYTHONPATH, so the interpreter imports this
module at start-up in the process it launches and in every process that
one spawns (the in transit endpoint and producers). Outside a benchmark
run the environment variable is unset and this does nothing.
"""

import os

if os.environ.get("PERFBENCH_PROBE_DIR"):
    import perfbench_probe

    perfbench_probe.install()
