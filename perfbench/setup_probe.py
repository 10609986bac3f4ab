"""Time one fresh set-up of vibox: `import vibox` plus one CLI call.

    python3 perfbench/setup_probe.py <vibox arguments...>

Run from the checkout root; prints the seconds taken and the median time of
the reference task (hostspeed.py) run five times right after.  Only the
standard library is loaded when the clock starts, so numpy's import and the
BLAS start-up paid by the first dense call are inside the measurement.
"""

import contextlib
import io
import os
import statistics
import sys
import time

import hostspeed


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.abspath("src"))
    import vibox.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        vibox.cli.main(argv)
    setup_s = time.perf_counter() - t0
    ref = [hostspeed.reference_s() for _ in range(5)]
    print(setup_s, statistics.median(ref))


if __name__ == "__main__":
    main(sys.argv[1:])
