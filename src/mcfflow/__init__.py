"""mcfflow: a numerical laboratory for mean curvature flow of convex bodies.

Convex plane curves and convex hypersurfaces of revolution are carried as
sampled support functions; geodesic caps live in the round ambient sphere.
The package provides closed-form ancient solutions with a residual oracle,
an explicit flow engine, the standard convex-geometry measurements,
curvature diagnostics, and trajectory-level classification of ancient
behaviour against the shrinking sphere.
"""

from .bodies import (CapState, NonConvexBodyError, SupportProfile,
                     random_convex_curve, random_convex_profile,
                     sphere_surface_area, unit_ball_volume)
from .geometry import (BodyMeasurements, area_and_volume, diameter,
                       hausdorff_distance, inner_radius, intrinsic_diameter,
                       iso_ratio, measure, min_max_width, outer_radius,
                       reverse_iso_radius_bound, shadow_measurements, width)
from .exact import (ExactFamily, angenent_oval_slice, cap_radius, cap_slice,
                    cylinder_radius, cylinder_reference_curvatures,
                    equator_slice, flow_residual, grim_reaper_profile,
                    grim_reaper_samples, oval_curvature_values, oval_extent,
                    oval_support_values, residual_convergence_order,
                    sample_trajectory, sphere_radius, sphere_slice)
from .engine import (ConvexityLostError, FlowControls, PoleSingularityError,
                     StabilityViolationError, StepFailedError, TimeSlice,
                     Trajectory, evolve, evolve_cap, step_axisym, step_curve)
from .diagnostics import (CurvatureField, KConvexity, PinchingReport,
                          ambient_pinching, ambient_pinching_b,
                          cubic_curvature_excess, cubic_excess_from_lambdas,
                          curvature_field, decay_envelope, gradient_ratio,
                          gradient_sigma, harnack_quantity, kconvex_deficit,
                          kconvexity, pinching_gap_level, pinching_report,
                          sufficient_alpha_from_ratio, type_quantities,
                          umbilic_deficit)
from .analysis import (ConditionReport, DiameterCurvatureReport,
                       KConvexGapReport, NotKConvexError,
                       ParameterGateViolatedError, PinchingDecayReport,
                       RescaledFlow, SolitonFit, VerdictRule,
                       WindowNotCoveredError, WindowTooShortError,
                       check_conditions, diameter_curvature_check,
                       feasible_sigma_p, fit_translation, kconvex_gap_check,
                       pinching_decay_check, soliton_proximity,
                       type_two_rescale)
from .trajio import (CorruptRecordError, SchemaMismatchError, config_hash,
                     emit_report, load_config, read_slice, read_trajectory,
                     validate_config, write_slice, write_trajectory)

__version__ = "1.0.0"
