"""Lossy two-waveguide coupler near its exceptional point.

Classical power decay and two-photon interference survival for a
directional coupler whose second arm loses light, either through a
phenomenological rate (memoryless) or through an explicitly traced
tight-binding chain reservoir (exact).
"""

__version__ = "0.1.0"

from . import classical, core, quantum, reservoir, scattering
from .classical import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .quantum import *  # noqa: F401,F403
from .reservoir import *  # noqa: F401,F403
from .scattering import *  # noqa: F401,F403

# The public names are declared once, in each submodule's __all__.
__all__ = ["__version__"] + [
    name
    for module in (core, classical, scattering, reservoir, quantum)
    for name in module.__all__
]
