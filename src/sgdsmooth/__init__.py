"""SGD as gradient descent on a noise-convolved loss: simulation,
one-point-convexity certification and convergence-bound validation."""

from .certifier import assumption1_estimate, region_scan
from .noise import NoiseKernel, RngStream, second_moment
from .objectives import (
    Objective,
    SpikyParams,
    check_smoothness,
    finite_diff_gradient,
    make_quadratic,
    make_spiky,
)
from .optimizer import Stage, StepSchedule, Trajectory, gd_run, sgd_run, shadow_check
from .smoothing import (
    SmoothedEstimate,
    hoeffding_halfwidth,
    hoeffding_tail,
    interval_grad,
    smoothed_grad_closed,
    smoothed_grad_mc,
    smoothed_value_closed,
    smoothed_value_mc,
)
from .theory import (
    TheoremConstants,
    constants,
    divergence_threshold,
    drift_check,
    stay_validate,
)

__version__ = "0.1.0"
