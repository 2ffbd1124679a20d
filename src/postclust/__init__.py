"""Point estimates and credible balls for Bayesian posteriors over clusterings.

The package covers the full pipeline: a Dirichlet-process mixture sampler
produces partition draws; partition metrics (variation of information and
the N-invariant pair-counting distance) score candidate clusterings; a
greedy lattice search locates the posterior expected-loss minimizer; and
credible balls with vertical/horizontal bounds quantify the uncertainty
around it.
"""

__version__ = "0.1.0"

from .ball import *
from .dpm import *
from .metrics import *
from .partition import *
from .posterior import *
from .search import *

__all__ = [
    "__version__",
    *ball.__all__,
    *dpm.__all__,
    *metrics.__all__,
    *partition.__all__,
    *posterior.__all__,
    *search.__all__,
]
