"""Curved fronts of combustion reaction-diffusion equations: planar profiles,
polytope front geometry, smoothed interfaces, comparison barriers, explicit
solvers, and front diagnostics."""

from importlib import import_module

# module -> the names the package exports from it, in import order
_EXPORTS = {
    "nonlinearity": ("CombustionNonlinearity", "make_combustion", "gamma_star"),
    "wave_profile": ("WaveProfile", "ShootingCollapseError", "build_profile",
                     "decay_rate_into_burned", "find_wave_speed", "ode_residual_sup",
                     "shoot_p"),
    "front_geometry": ("FrontConfiguration", "symmetric_v", "q_values", "min_q",
                       "subsolution_lower", "classify_region", "boundary_distance",
                       "ridge_distance", "interface_distance", "spatial_ridge_distance"),
    "hypersurface": ("ScaledSurface", "fit_surface_constants"),
    "barriers": ("BarrierParams", "BarrierSampleSpec", "BarrierSet", "auto_parameters",
                 "mollifier_omega", "parabolic_residual", "validate_parameters"),
    "rd_solver": ("Grid", "Field", "SolverConfig", "make_boundary", "subsolution_floor",
                  "solve_cauchy", "entire_solution", "measure_speed_1d", "SpeedFit"),
    "diagnostics": ("PerturbationSpec", "check_admissibility",
                    "extract_interface_and_Meps", "half_level_cross_check",
                    "mean_speed_estimate", "sandwich_and_monotonicity", "stability_run",
                    "weighted_gap_report"),
    "cli_io": ("read_snapshot", "write_snapshot"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
for _module, _names in _EXPORTS.items():
    _mod = import_module(f".{_module}", __name__)
    globals().update((name, getattr(_mod, name)) for name in _names)
del _module, _names, _mod, import_module

__version__ = "0.1.0"
