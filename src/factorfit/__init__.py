"""Multi-subject factor analysis at desk scale.

Two fitters share the infrastructure in this package:

* :mod:`factorfit.srm` -- the shared response model, fit by a
  distributed constrained EM whose E-step works entirely in the
  K-dimensional factor space;
* :mod:`factorfit.htfa` -- hierarchical topographic factor analysis,
  fit by a distributed MAP estimator built on the bound-constrained
  least-squares solver in :mod:`factorfit.trf`.

Workers communicate only through the collectives in
:mod:`factorfit.collectives`, which run serially, across threads, or
across processes with identical numerical results.
"""

from . import cli, collectives, data_io, htfa, kernels, reference, srm, trf
from .collectives import (
    Communicator,
    SerialCommunicator,
    SocketCommunicator,
    create_thread_communicators,
)
from .data_io import (
    Manifest,
    SubjectData,
    SynthSpec,
    generate_synthetic,
    load_manifest,
    load_subject,
)
from .errors import FactorFitError
from .htfa import GlobalTemplate, HtfaConfig, LocalModel, SubsamplePlan
from .kernels import VoxelGrid
from .srm import SrmConfig, SrmModel
from .trf import LeastSquaresProblem, SolveResult, TrfConfig

__version__ = "0.1.0"

__all__ = [
    "cli",
    "collectives",
    "data_io",
    "htfa",
    "kernels",
    "reference",
    "srm",
    "trf",
    "Communicator",
    "SerialCommunicator",
    "SocketCommunicator",
    "create_thread_communicators",
    "Manifest",
    "SubjectData",
    "SynthSpec",
    "generate_synthetic",
    "load_manifest",
    "load_subject",
    "FactorFitError",
    "GlobalTemplate",
    "HtfaConfig",
    "LocalModel",
    "SubsamplePlan",
    "VoxelGrid",
    "SrmConfig",
    "SrmModel",
    "LeastSquaresProblem",
    "SolveResult",
    "TrfConfig",
    "__version__",
]
