"""Surface pencils through a spine curve in Euclidean 4-space.

A pencil sweeps X(s,t) = gamma(s) + A(t) V2(s) + B(t) V4(s) along the
Frenet frame of a unit-speed curve.  The package provides:

* ``expr``      -- the expression language with exact symbolic derivatives
* ``curve``     -- curves in E^4 and their moving frames
* ``pencil``    -- pencil surfaces, frames, fundamental forms, flatness residuals
* ``curvature`` -- Gaussian, normal and mean curvature
* ``families``  -- rotation, Vranceanu, Lawson, ruled and flat-polar designs
* ``oracle``    -- finite-difference ground truth for any E^4 immersion
* ``cli``       -- the ``pencil4`` command-line front end
"""

__version__ = "0.1.0"

from .curve import (  # noqa: F401
    AnalyticCurve,
    FrenetFrames,
    WCurve,
    frenet_apparatus,
    frenet_frames,
)
from .pencil import (  # noqa: F401
    FundamentalForms,
    MarchingScale,
    PencilCoefficients,
    PencilSurface,
)
from .curvature import CurvatureReport, report  # noqa: F401
from .oracle import Immersion, OracleReport, compare, numeric_forms  # noqa: F401
