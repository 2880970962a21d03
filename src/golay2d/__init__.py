"""2-D Golay complementary array pairs, sets, and mates from Boolean phase functions.

Builds complementary array pairs, array sets, and array mates directly from
quadratic generalized Boolean functions, verifies the defining correlation
identities by exact root-of-unity arithmetic, and analyzes the PAPR of row
and column sequences together with the construction-implied bounds.
"""

from . import boolfunc, constructions, correlation, papr, verify
from .boolfunc import *
from .correlation import *
from .constructions import *
from .papr import *
from .verify import *

__version__ = "0.1.0"

__all__ = boolfunc.__all__ + correlation.__all__ + constructions.__all__ + papr.__all__ + verify.__all__
