"""twistorlab: moving-frames engine for the twistor geometry of Hermitian surfaces.

Subpackages
-----------
exterior            dense complex exterior algebra, Hodge star, SD/ASD split
manifold            metric DSL, chart surfaces, unitary frames, Lee form
connection          Levi-Civita and the canonical Hermitian connection family
curvature_analysis  6x6 curvature operator, Weyl blocks, geometric condition flags
twistor             coframes and almost-Hermitian structures on the twistor space
flag                exact structure constants on the SU(3) flag manifold
cli                 report / verify / scan / appendix entry points
"""

from twistorlab.exterior import ComplexForm, SdAsdBasis, wedge, hodge_star_4, sd_asd_split
from twistorlab.manifold import HermitianSurface, adapted_frame, builtin, parse_surface_spec
from twistorlab.connection import gauduchon, levi_civita
from twistorlab.curvature_analysis import condition_flags, curvature_operator, decompose
from twistorlab.twistor import (
    TwistorPoint,
    condition_report,
    sample_twistor_points,
    twistor_coframe,
)
from twistorlab.flag import appendix_table, flag_dK, nearly_kahler_check

__version__ = "0.1.0"

__all__ = [
    "ComplexForm",
    "SdAsdBasis",
    "wedge",
    "hodge_star_4",
    "sd_asd_split",
    "HermitianSurface",
    "adapted_frame",
    "builtin",
    "parse_surface_spec",
    "gauduchon",
    "levi_civita",
    "condition_flags",
    "curvature_operator",
    "decompose",
    "TwistorPoint",
    "condition_report",
    "sample_twistor_points",
    "twistor_coframe",
    "appendix_table",
    "flag_dK",
    "nearly_kahler_check",
    "__version__",
]
