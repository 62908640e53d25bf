"""Generalized Hermite (Hermite-Chihara) orthogonal polynomial systems.

Construct systems from governing sequences, realize their derivation operators
and oscillator algebras, and verify the defining identities exactly (rational
arithmetic) or numerically (quadrature, truncated matrices).  Each public
name is listed once, in its module's ``__all__``, and re-exported here.
"""

from .governing import *
from .derivation import *
from .systems import *
from .oscillator import *
from .measure import *

__version__ = "0.1.0"
