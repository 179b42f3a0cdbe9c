"""Solvers for linear conic feasibility via geometric rescaling.

Kernel problem: find x > 0 with Ax = 0. Image problem: find y with
A^T y > 0. Exactly one is solvable for generic A; the max-support variants
settle the degenerate boundary by splitting the columns into the kernel
support S* and the image support T*.
"""

from .certify import (
    CertReport,
    check_complementary_pair,
    check_image_certificate,
    check_kernel_certificate,
)
from .conditioning import (
    ConditionReport,
    condition_report,
    encoding_length,
    goffin_oracle,
    hadamard_delta,
    omega_oracle,
    theta,
)
from .errors import (
    ContractViolationError,
    DegenerateColumnError,
    LinconeError,
    OracleFaultError,
    ParseError,
    UnsupportedInstanceError,
)
from .firstorder import dv_inner, dv_step, perceptron_inner, perceptron_step, von_neumann
from .image import (
    ImageCertificate,
    full_support_image,
    image_rescale,
    max_support_image,
)
from .instances import (
    ConicInstance,
    LPFeasibilityProblem,
    exact_support_oracle,
    gen_degenerate,
    gen_image_feasible,
    gen_kernel_feasible,
    parse_certificate,
    parse_instance,
    recover_lp_point,
    reduce_lp_feasibility,
    write_certificate,
    write_instance,
)
from .kernel import (
    KernelCertificate,
    full_support_kernel,
    kernel_rescale,
    max_support_kernel,
)
from .linalg import SymPosDef, kernel_projector
from .oracle import (
    ActiveSet,
    MatrixSeparationOracle,
    SeparationOracle,
    SubprocessOracle,
    oracle_von_neumann,
    strict_conic_feasibility,
)
from .report import (
    INFEASIBLE_DETECTED,
    NO_CONVERGE,
    SOLVED,
    BoundCheck,
    Limits,
    SolveReport,
    default_limits,
    rescaling_bound,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # solvers
    "full_support_kernel",
    "max_support_kernel",
    "full_support_image",
    "max_support_image",
    "strict_conic_feasibility",
    # first-order inner loops
    "von_neumann",
    "dv_inner",
    "perceptron_inner",
    "dv_step",
    "perceptron_step",
    # rescaling primitives
    "kernel_rescale",
    "image_rescale",
    # oracles and adapters
    "SeparationOracle",
    "MatrixSeparationOracle",
    "SubprocessOracle",
    "ActiveSet",
    "oracle_von_neumann",
    # conditioning
    "goffin_oracle",
    "omega_oracle",
    "hadamard_delta",
    "theta",
    "encoding_length",
    "condition_report",
    "ConditionReport",
    # instances and formats
    "ConicInstance",
    "LPFeasibilityProblem",
    "gen_kernel_feasible",
    "gen_image_feasible",
    "gen_degenerate",
    "exact_support_oracle",
    "reduce_lp_feasibility",
    "recover_lp_point",
    "parse_instance",
    "write_instance",
    "parse_certificate",
    "write_certificate",
    # certification
    "CertReport",
    "check_kernel_certificate",
    "check_image_certificate",
    "check_complementary_pair",
    # outcomes
    "SolveReport",
    "BoundCheck",
    "Limits",
    "default_limits",
    "rescaling_bound",
    "SOLVED",
    "NO_CONVERGE",
    "INFEASIBLE_DETECTED",
    "KernelCertificate",
    "ImageCertificate",
    # linear algebra helpers
    "SymPosDef",
    "kernel_projector",
    # errors
    "LinconeError",
    "ContractViolationError",
    "DegenerateColumnError",
    "UnsupportedInstanceError",
    "OracleFaultError",
    "ParseError",
]
