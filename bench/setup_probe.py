"""Time one fresh-process set-up of codedfl: importing the package (and
with it numpy and scipy) plus ``load_config`` on the workload's config.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON   (prints seconds)
"""

import sys
from time import perf_counter


def main() -> None:
    src, config = sys.argv[1], sys.argv[2]
    t0 = perf_counter()
    sys.path.insert(0, src)
    from codedfl import cli
    cli.load_config(config)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
