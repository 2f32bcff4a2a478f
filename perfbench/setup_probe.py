"""Time one set-up in a fresh interpreter: import racdnn, build both nets
and run `load_decoder_from`. Prints the seconds it took.

Usage: python3 perfbench/setup_probe.py <preset> <seed>
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import workloads
    workloads.build_nets(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - t0)
