"""Time one fresh process from `import compseq` through the warm-up op.

Usage: python3 bench/setup_probe.py <src dir> <scratch output file>
Prints the elapsed seconds. The span includes the lazy prime sieves
(10^5 for factorize, 10^6 for trial division) that the warm-up triggers.
"""

import sys
import time

import workloads


def main() -> None:
    src, out_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    started = time.perf_counter()
    workloads.warm_up(out_path)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
