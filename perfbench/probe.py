"""Set-up probe: load one workload as a fresh process would, print the clock.

Usage: python3 perfbench/probe.py <workload>

The last line of output is time.perf_counter() once mixregime is imported
and the workload's configs are loaded.  On Linux that clock is shared by all
processes, so the parent subtracts the moment it started this process.
"""

import sys
import time

import bootstrap

if __name__ == "__main__":
    bootstrap.load(sys.argv[1])
    print(repr(time.perf_counter()))
