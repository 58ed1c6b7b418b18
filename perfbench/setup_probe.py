"""Set-up cost of one fresh process: import stokesbesov, then build_basis,
build_grid and grid.tables(basis) at the given truncation and grid.

    python3 perfbench/setup_probe.py <src-dir> <n_max> <k_max> <radial> <angular>

Prints one JSON line with the elapsed seconds and the imported module path.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv) -> None:
    src = argv[0]
    n_max, k_max, radial, angular = (int(a) for a in argv[1:5])
    sys.path.insert(0, src)
    import stokesbesov
    basis = stokesbesov.build_basis(n_max, k_max)
    grid = stokesbesov.build_grid(radial, angular)
    grid.tables(basis)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "module": stokesbesov.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
