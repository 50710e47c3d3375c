"""Phase-space quantum mechanics on 1-D grids.

Wigner/Weyl transforms, density matrices, metaplectic operators, Gaussian
and quantum-Bochner admissibility tests, variable Planck-parameter scans,
and Radon tomography, all discretized on dual position/momentum grids.

Every name a module lists in its ``__all__`` is importable from here.
"""

__version__ = "0.1.0"

from .errors import *
from .grid import *
from .transforms import *
from .wavefunctions import *
from .states import *
from .wigner import *
from .weyl import *
from .symplectic import *
from .quantumness import *
from .tomography import *
from .serialize import *
