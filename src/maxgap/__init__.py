"""Largest-gap bandit: adaptively cluster arms at the biggest mean gap.

Sample K noisy arms to find the largest difference between adjacent means and
return the induced two-cluster partition with fixed-confidence guarantees.
See ``env`` (instances), ``confidence`` (anytime intervals), ``gapbounds``
(gap confidence bounds), ``algorithms`` (adaptive samplers and baselines),
``hardness`` (difficulty parameters), and ``cli`` (experiment harness).

The package exports the union of those submodules' ``__all__`` lists (``cli``
is imported as ``maxgap.cli``), so a public name is listed in its submodule
only.
"""

from . import algorithms, confidence, env, gapbounds, hardness
from .algorithms import *
from .confidence import *
from .env import *
from .gapbounds import *
from .hardness import *

__version__ = "0.1.0"

__all__ = [
    *algorithms.__all__,
    *confidence.__all__,
    *env.__all__,
    *gapbounds.__all__,
    *hardness.__all__,
]
