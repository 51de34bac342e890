"""One set-up sample: python3 bench/setup_probe.py WORKLOAD SEED START.

START is the parent's time.time() just before it started this process.  The
probe imports the library, builds the workload's inputs exactly as run.py
does, and prints the seconds from START to that point.
"""

import sys
import time

from run import build, import_library, work_directory


def main() -> None:
    workload, seed, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    es = import_library()
    with work_directory() as workdir:
        build(es, workload, seed, workdir)
        elapsed = time.time() - start
    print(elapsed)


if __name__ == "__main__":
    main()
