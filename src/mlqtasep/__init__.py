"""Exact tools for the inhomogeneous multispecies exclusion process on a ring.

The package builds the word process and its multiline-queue lifts as finite
generator graphs with symbolic rates, verifies the known closed-form
stationary weights as polynomial identities, and cross-checks everything
against an exact rational nullspace solver and a Monte-Carlo sampler.
"""

from .core import (
    BullyLabeling,
    Composition,
    build_composition,
    bully_projection,
    enumerate_mlqs,
    enumerate_words,
    parse_queue,
    parse_word,
    ringing_transition,
)
from .poly import LaurentPoly, parse_poly, q_int_derivative

__version__ = "0.1.0"
