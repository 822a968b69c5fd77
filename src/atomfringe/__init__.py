"""atomfringe: velocity-averaged fringes, dispersion fits, counterphases.

Simulates the visibility and phase of a three-grating matter-wave
interferometer fed by a supersonic beam, fits measured phase and
visibility curves for the speed ratio and the Stark coefficient, and
designs rotation-type counterphases that cancel the velocity
dispersion of a polarizability phase.

Its public names are the ``__all__`` lists of beam, compensation,
fitkit, fringe and phase, the one place each name is declared.
"""

from .beam import *
from .compensation import *
from .fitkit import *
from .fringe import *
from .phase import *

__version__ = "0.1.0"
