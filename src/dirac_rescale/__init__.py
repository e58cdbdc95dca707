"""Time-rescaled shortcuts to adiabaticity for two-level Dirac-type dynamics."""

from .rescaling import *
from .propagator import *
from .gauge import *
from .iontrap import *
from .floquet import *
from .classical import *

__version__ = "0.1.0"
