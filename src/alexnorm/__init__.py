"""Integrable functions through their primitives: Alexiewicz and weighted
norms, translation continuity, weight admissibility, and Poisson boundary
behaviour on the disc and half-plane."""

from .errors import (AlexnormError, DegenerateWeight, HypothesisViolated,
                     InvalidSpec, KernelSingularity, NonConvergentTail,
                     NonIntegrableProduct, NotAbsolutelyIntegrable,
                     SpecFieldError, SpecParseError, TailBoundFailure,
                     ToleranceNotMet)
from .norms import (DecaySpec, GapReport, SmoothBump, alexiewicz_norm,
                    alexiewicz_norm_halfline, gap_sweep, hk_not_l1_witness,
                    one_norm, osc_lower_bound_check, primitive_gap_l1,
                    primitive_gap_norm, sinc_integrand,
                    slow_decay_construct, sweep_converged, translate,
                    translation_gap, verify_slow_decay)
from .poisson import (HalfPlaneOperator, HalfPlanePoint, PeriodicIntegrand,
                      disc_boundary_convergence, disc_kernel_mass,
                      halfplane_weighted_convergence, kernel_bv_audit,
                      kernel_pair, poisson_disc, poisson_halfplane)
from .realfn import (ClosedFormPrimitive, Integrand, Interval, Partition,
                     PiecewiseChebyshevPrimitive, PiecewiseLinearPrimitive,
                     Primitive, build_primitive_from_pointwise, integral,
                     oscillation, variation)
from .registry import (describe, function_from_spec, get_function, get_weight,
                       indicator, registry_list, step_weight, weight_from_spec)
from .weights import (MeasureEstimate, RatioFunction, Weight,
                      convergence_in_measure, product_integrand,
                      ratio_conditions_check, sufficient_conditions_check,
                      uniform_bound_lemma_check, variation_bound_check,
                      weight_ratio, weighted_gap_sweep, weighted_norm)

__version__ = "0.1.0"
