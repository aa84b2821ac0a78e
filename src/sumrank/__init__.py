"""Bounds, volumes and genericity experiments for sum-rank-metric codes.

The sum-rank weight of a word over F_{q^m}, split into ell blocks of length
eta, is the sum of the F_q-ranks of the blocks' m-by-eta expansions.  This
package computes exact sphere/ball volumes for that metric, evaluates the
Singleton, sphere-packing and Gilbert-Varshamov bounds (exact, simplified and
asymptotic forms), bounds the probability that random systematic codes attain
the Singleton bound, and validates everything against enumeration and
Monte-Carlo simulation of codes over explicitly constructed field towers.
"""

from . import bounds, codes, combinatorics, fields, genericity, volumes
from .bounds import *
from .codes import *
from .combinatorics import *
from .fields import *
from .genericity import *
from .volumes import *

__version__ = "0.1.0"

__all__ = (bounds.__all__ + codes.__all__ + combinatorics.__all__
           + fields.__all__ + genericity.__all__ + volumes.__all__)
