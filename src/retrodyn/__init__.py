"""Simulation and inference for a continuously monitored mechanical resonator.

The package covers the desk-scale workflow around a position-measured
Gaussian resonator: conditional trajectory simulation with the matching
homodyne record, forward (prediction) and backward (retrodiction) filtering,
reconstruction of the conditional variance from ensemble statistics of
filtered records, stochastic entropy flux/production and information rates,
and matrix-level cross-checks against the pre-adiabatic composite model.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

from .errors import *
from .model import *
from .dynamics import *
from .estimation import *
from .thermo import *
from .fullmodel import *
from .pipeline import *

__version__ = "0.1.0"
