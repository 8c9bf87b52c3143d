"""Limiting distributions of time-averaged continuous-time quantum walks.

The package covers finite graphs and their periodic lattice products:
numeric and closed-form limiting densities, band-structure collision scans,
exact torus dynamics with finite and infinite time averaging, and the
classical random-walk baseline. Its public names are each module's
``__all__``, re-exported here.
"""

from .graphs import *
from .spectral import *
from .closed_forms import *
from .floquet import *
from .dynamics import *
from .classical import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *graphs.__all__,
    *spectral.__all__,
    *closed_forms.__all__,
    *floquet.__all__,
    *dynamics.__all__,
    *classical.__all__,
]
