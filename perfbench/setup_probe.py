"""Set-up probe: import curvinv from the checkout and build one metric.

Usage: python3 perfbench/setup_probe.py METRIC DIM [SYM=VALUE ...]

Prints ``ready`` once the substituted Metric exists, then exits.  The
benchmark times each probe from just before it starts the interpreter to
that line.
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from curvinv.pipeline import metric_with_substitutions  # noqa: E402

name, dim = sys.argv[1], int(sys.argv[2])
substitutions = [(s, Fraction(v)) for s, _, v in (arg.partition("=") for arg in sys.argv[3:])]
metric_with_substitutions(name, dim, substitutions)
print("ready", flush=True)
