"""Exact construction and verification of ambiskew Hopf algebra extensions."""

from .ambicore import AmbiElement, AmbiskewAlgebra, Tensor
from .basehopf import (
    BaseAlgebra,
    BaseAutomorphism,
    BaseElement,
    BaseTensor,
    Character,
    GroupBase,
    LaurentBase,
    PolynomialBase,
)
from .coradical import CoradicalContext, corad_degree
from .hopfstruct import (
    CheckReport,
    ExtensionData,
    GeneralPresentation,
    HopfAmbiskewAlgebra,
    check_main_theorem,
    classify_trichotomy,
    construct_hopf,
    relabel,
    verify_hopf_axioms,
)
from .scalar import (
    CyclotomicField,
    RationalField,
    RationalFunctionField,
    Scalar,
    hat,
    mul_order,
    prec,
)
from .uqsl2 import UqSl2Base

__version__ = "0.1.0"

__all__ = [
    "AmbiElement", "AmbiskewAlgebra", "Tensor",
    "BaseAlgebra", "BaseAutomorphism", "BaseElement", "BaseTensor", "Character",
    "GroupBase", "LaurentBase", "PolynomialBase", "UqSl2Base",
    "CoradicalContext", "corad_degree",
    "CheckReport", "ExtensionData", "GeneralPresentation", "HopfAmbiskewAlgebra",
    "check_main_theorem", "classify_trichotomy", "construct_hopf",
    "relabel", "verify_hopf_axioms",
    "CyclotomicField", "RationalField", "RationalFunctionField", "Scalar",
    "hat", "mul_order", "prec",
]
