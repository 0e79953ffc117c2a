"""Causal reasoning on finite product probability spaces.

A causal space is a finite product space, a probability measure on it, and
one transition kernel per coordinate subset. The kernels are the causal
mechanism; interventions rewrite them and push a new measure forward. This
package implements that model end to end: the measure layer, interventions,
effect classification, compilers from structural equations and from
potential-outcome tables, affine-Gaussian analogues, and a JSON document
format with a command-line front end.
"""

from .core import (
    CausalMechanism,
    CausalSpace,
    InterventionSpec,
    intervene,
    intervene_hard,
    mechanism_from_conditionals,
    validate_causal_space,
)
from .effects import EffectClass, classify_effect, has_no_effect_given
from .errors import (
    CausalSpacesError,
    CycleError,
    DocumentError,
    DomainError,
    SingularBlockError,
)
from .measure import Atom, Dist, Event, FiniteProductSpace, Kernel, rectangle

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CausalMechanism",
    "CausalSpace",
    "CausalSpacesError",
    "CycleError",
    "Dist",
    "DocumentError",
    "DomainError",
    "EffectClass",
    "Event",
    "FiniteProductSpace",
    "InterventionSpec",
    "Kernel",
    "SingularBlockError",
    "classify_effect",
    "has_no_effect_given",
    "intervene",
    "intervene_hard",
    "mechanism_from_conditionals",
    "rectangle",
    "validate_causal_space",
]
