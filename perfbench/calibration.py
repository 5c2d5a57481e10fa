"""Machine-speed calibration for the benchmark's time metrics.

The machines this benchmark runs on are shared: the same fixed computation
takes anywhere from 0.7x to 1.5x its usual time, and the speed drifts over
minutes.  So a fixed reference computation, independent of lgcardy, is timed
after every job, and each job time is rescaled by the ratio of
``REFERENCE_S`` to the median of the reference times around it.  The
reported times are then wall times at a fixed machine speed, the speed at
which the reference takes ``REFERENCE_S``.  Raw wall times are printed
alongside.

The reference mixes what lgcardy spends its time on: interpreted loops over
small tuples and dicts, complex arithmetic, and numpy calls on small dense
arrays.

Set-up is mostly starting Python and importing modules, whose speed follows
the machine differently: rescaled by the computation above, set-up medians
drifted by up to 35% over an hour while the raw ones drifted less.  So each
set-up probe is rescaled instead by a start reference, a fresh
``python -c "import numpy"`` timed from outside just before and just after
it, to the speed at which that takes ``START_REFERENCE_S``.  Over eight
rounds of seven probes per workload, the round medians then spanned at most
+-10% of their midpoint, against +-14% raw and +-12% rescaled by the
computation.
"""

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005
START_REFERENCE_S = 0.15
WINDOW = 4  # reference times on each side of a job that set its scale

_MATRIX = np.linspace(-0.1, 0.1, 24 * 24).reshape(24, 24) * (1 + 0.5j)


def _reference_work():
    total = 0
    for i in range(12000):
        total += i * i % 7
    terms = {}
    for i in range(3000):
        key = (i % 5, i % 7, i % 11)
        terms[key] = terms.get(key, 0j) + complex(i, -i)
    x = _MATRIX
    for _ in range(60):
        x = np.tanh(x @ _MATRIX + 0.5)
    roots = np.roots(np.arange(1.0, 10.0))
    return total, len(terms), complex(x[0, 0]), complex(roots[0])


def reference_seconds():
    """Wall seconds of one run of the reference computation."""
    start = perf_counter()
    _reference_work()
    return perf_counter() - start


def start_reference_seconds():
    """Wall seconds to start a fresh Python that imports numpy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - start


def scale(references):
    """Factor that takes times measured alongside ``references`` to the
    reference speed."""
    return REFERENCE_S / statistics.median(references)


def rescale(times, references):
    """Rescale ``times[i]``, each followed by ``references[i]``, to the
    reference speed, using the reference times nearest to it."""
    return [t * scale(references[max(0, i - WINDOW): i + WINDOW + 1])
            for i, t in enumerate(times)]
