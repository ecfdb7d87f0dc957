"""Unitary quasi-inverses of single-qubit channels.

Given a CPTP qubit channel, find the unitary that, applied after the
channel, maximally decreases the mean square trace distance between
channel input and corrected output, averaged over the Bloch ball.

The random generator, the samplers (module ``sampling``) and the
brute-force check (module ``oracle``) load on first use of one of their
names, so that ``import quasinv.cli`` and ``analyze`` import neither.
"""

import importlib

from .channels import (
    AffineChannel,
    CptpReport,
    KrausChannel,
    UnitaryParams,
    apply,
    choi,
    compose,
    identity_channel,
    kraus_to_affine,
    phase_distance,
    random_channel,
    unitary_matrix,
    unitary_to_affine,
    validate_cptp,
)
from .inverter import (
    QForm,
    QuasiInverseResult,
    VerificationReport,
    build_q,
    delta_mstd_direct,
    maximize,
    quasi_inverse,
)
from .metrics import (
    MstdReport,
    mstd_analytic,
    mstd_composed,
    mstd_monte_carlo,
    mstd_surface_analytic,
    trace_distance,
)
from .numerics import ConvergenceError, eig_herm4, eig_sym4
from .zoo import FamilySpec, GoldenExpectation, make

# name -> the module it loads from on first use ("oracle" is that module itself)
_LAZY = {
    "RngStream": "sampling",
    "sample_ball": "sampling",
    "sample_sphere4": "sampling",
    "brute_force_best": "oracle",
    "verify": "oracle",
    "oracle": "oracle",
}

__version__ = "0.1.0"

__all__ = [
    "AffineChannel",
    "ConvergenceError",
    "CptpReport",
    "FamilySpec",
    "GoldenExpectation",
    "KrausChannel",
    "MstdReport",
    "QForm",
    "QuasiInverseResult",
    "RngStream",
    "UnitaryParams",
    "VerificationReport",
    "apply",
    "brute_force_best",
    "build_q",
    "choi",
    "compose",
    "delta_mstd_direct",
    "eig_herm4",
    "eig_sym4",
    "identity_channel",
    "kraus_to_affine",
    "make",
    "maximize",
    "mstd_analytic",
    "mstd_composed",
    "mstd_monte_carlo",
    "mstd_surface_analytic",
    "phase_distance",
    "quasi_inverse",
    "random_channel",
    "sample_ball",
    "sample_sphere4",
    "trace_distance",
    "unitary_matrix",
    "unitary_to_affine",
    "validate_cptp",
    "verify",
]


def __getattr__(name: str):
    """A name of ``_LAZY``, loaded from its module on first use (PEP 562) and kept as a module global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value
