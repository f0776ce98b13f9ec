"""Integrated Mass Enhancement and emission-rate inversion.

Enhancement maps in ppm*m convert to mass via the ideal gas law, aggregate
into IME over a plume mask, and invert to an emission rate through the
length-scale model Q = U_eff * IME / L with L = sqrt(plume area) and an
effective wind speed that grows logarithmically with the 10-m wind. IME- and
wind-driven uncertainty terms combine in quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, check_ranges
from .scene_io import EnhancementField
from .segmentation import PlumeMask

KG_S_TO_T_H = 3.6  # 3600 s/h / 1000 kg/t
U10_FLOOR = 0.5  # m/s; guards the log parameterization

SIGMA_METHODS = ("analytic", "forward_difference")


@dataclass(frozen=True)
class GasConstants:
    """Inputs of the ppm*m -> kg/m^2 conversion (defaults: CH4 at STP)."""

    molar_mass: float = 0.016043  # kg/mol
    temperature: float = 273.15  # K
    pressure: float = 101_325.0  # Pa
    gas_constant: float = 8.314462618  # J/(mol K)

    def __post_init__(self):
        check_ranges("constants", self, molar_mass="non-negative", temperature="positive", pressure="positive",
                     gas_constant="positive")


@dataclass(frozen=True)
class WindConfig:
    """10-m wind speed and the effective-wind calibration."""

    u10: float
    sigma_u10: float = 1.0
    beta0: float = 0.6
    beta1: float = 1.1
    sigma_method: str = "analytic"

    def __post_init__(self):
        check_ranges("wind", self, u10="positive", sigma_u10="non-negative", beta0="finite", beta1="finite")
        if self.sigma_method not in SIGMA_METHODS:
            raise ConfigError(f"wind.sigma_method must be one of {', '.join(SIGMA_METHODS)}")


@dataclass(frozen=True)
class PlumeRecord:
    """Quantified plume: mass, length scale, wind, flux, and error budget.

    The fields are the plume's report keys; the mask's three are None without a plume mask.
    """

    ime_kg: float
    area_m2: float
    length_m: float
    u_eff_m_per_s: float
    sigma_u_eff_m_per_s: float
    flux_t_per_h: float
    flux_kg_per_s: float
    sigma_flux_wind_t_per_h: float
    sigma_ime_kg: Optional[float] = None
    sigma_flux_ime_t_per_h: Optional[float] = None
    sigma_flux_t_per_h: Optional[float] = None
    label_id: Optional[int] = None
    pixel_count: Optional[int] = None
    touches_edge: Optional[bool] = None
    assumptions: tuple[str, ...] = ()


def ppmm_to_kg_per_m2(constants: GasConstants = GasConstants()) -> float:
    """Mass per area of a 1 ppm*m gas column: 1e-6 * M * P / (R * T)."""
    return 1e-6 * constants.molar_mass * constants.pressure / (
        constants.gas_constant * constants.temperature
    )


def integrate_ime(
    field: EnhancementField,
    mask: np.ndarray,
    constants: GasConstants = GasConstants(),
) -> tuple[float, Optional[float]]:
    """IME (kg) over the mask; negative enhancements are included, not clipped.

    sigma_IME aggregates per-pixel sigma_total in quadrature (pixel
    independence assumed) and is None when the field has no sigma_total.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != field.shape:
        raise DomainError("plume mask shape does not match the field")
    use = mask & ~field.nodata_mask
    if not np.any(use):
        raise DomainError("plume mask is empty")
    f = ppmm_to_kg_per_m2(constants)
    pixel_area = field.gsd * field.gsd
    ime = f * pixel_area * float(field.delta_x[use].sum())
    sigma = None
    if field.sigma_total is not None:
        sigma = f * pixel_area * math.sqrt(float((field.sigma_total[use] ** 2).sum()))
    return ime, sigma


def plume_length(area_m2: float) -> float:
    """Length scale of the inversion: sqrt of the plume area."""
    if area_m2 <= 0:
        raise DomainError("plume area must be positive")
    return math.sqrt(area_m2)


def effective_wind(wind: WindConfig) -> tuple[float, float, tuple[str, ...]]:
    """Effective wind U_eff = beta0 + beta1 * ln(u10) and its uncertainty.

    u10 below 0.5 m/s is clamped (flagged) to keep the log away from its
    singularity. The analytic method propagates the derivative
    beta1 * sigma / u10; forward_difference evaluates the finite step
    beta1 * ln((u10 + sigma) / u10).
    """
    flags: tuple[str, ...] = ()
    u10 = wind.u10
    if u10 < U10_FLOOR:
        u10 = U10_FLOOR
        flags = (f"u10 clamped to {U10_FLOOR} m/s for the effective-wind model",)
    u_eff = wind.beta0 + wind.beta1 * math.log(u10)
    if wind.sigma_method == "analytic":
        sigma = wind.beta1 * wind.sigma_u10 / u10
    else:
        sigma = wind.beta1 * math.log((u10 + wind.sigma_u10) / u10)
    return u_eff, sigma, flags


def flux(ime_kg: float, length_m: float, u_eff: float) -> float:
    """Emission rate in t/h: 3.6 * U_eff * IME / L."""
    if length_m <= 0:
        raise DomainError("plume length must be positive")
    return KG_S_TO_T_H * u_eff * ime_kg / length_m


def flux_uncertainty(
    ime_kg: float,
    sigma_ime_kg: Optional[float],
    length_m: float,
    u_eff: float,
    sigma_u_eff: float,
) -> tuple[Optional[float], float, Optional[float]]:
    """(total, wind term, IME term) flux uncertainties in t/h.

    The wind term scales the IME estimate by sigma(U_eff); the IME term
    scales U_eff by sigma(IME); the total is their quadrature sum. With
    sigma(IME) unavailable the IME term and total are None except that the
    wind term alone is still reported.
    """
    if length_m <= 0:
        raise DomainError("plume length must be positive")
    sigma_wind = KG_S_TO_T_H * sigma_u_eff * ime_kg / length_m
    if sigma_ime_kg is None:
        return None, sigma_wind, None
    sigma_ime_term = KG_S_TO_T_H * u_eff * sigma_ime_kg / length_m
    try:
        squares = sigma_wind**2 + sigma_ime_term**2
    except OverflowError:  # a square past the float range
        squares = math.inf
    # below the least normal float the squares lost digits to underflow, or all of them
    total = math.sqrt(squares) if squares >= sys.float_info.min else math.hypot(sigma_wind, sigma_ime_term)
    return total, sigma_wind, sigma_ime_term


def quantify(
    ime_kg: float,
    sigma_ime_kg: Optional[float],
    area_m2: float,
    wind: WindConfig,
    plume: Optional[PlumeMask] = None,
) -> PlumeRecord:
    """Assemble a full record from aggregated quantities (no rasters needed)
    and the plume mask they come from, if any.

    A wind whose U_eff is not positive is a config error, since its flux
    would not be; a record with a quantity that is not finite is a domain
    error, so neither reaches a report.
    """
    length = plume_length(area_m2)
    u_eff, sigma_u, wind_flags = effective_wind(wind)
    if not u_eff > 0:
        raise ConfigError(f"wind.u10, wind.beta0 and wind.beta1 give U_eff = beta0 + beta1 * ln(u10) = "
                          f"{u_eff:.4g} m/s; the flux needs a positive U_eff")
    q = flux(ime_kg, length, u_eff)
    total, sigma_wind, sigma_ime_term = flux_uncertainty(
        ime_kg, sigma_ime_kg, length, u_eff, sigma_u
    )
    edge = plume is not None and plume.touches_edge
    assumptions = (["plume touches the scene edge"] if edge else []) + list(wind_flags)
    assumptions.append(f"sigma(U_eff) method: {wind.sigma_method}")
    if sigma_ime_kg is None:
        assumptions.append("sigma(IME) unavailable: flux uncertainty reports the wind term only")
    else:
        assumptions.append("sigma(IME) assumes per-pixel independence (root-sum-square)")
    record = PlumeRecord(
        ime_kg=ime_kg,
        area_m2=area_m2,
        sigma_ime_kg=sigma_ime_kg,
        length_m=length,
        u_eff_m_per_s=u_eff,
        sigma_u_eff_m_per_s=sigma_u,
        flux_t_per_h=q,
        flux_kg_per_s=u_eff * ime_kg / length,
        sigma_flux_t_per_h=total,
        sigma_flux_wind_t_per_h=sigma_wind,
        sigma_flux_ime_t_per_h=sigma_ime_term,
        label_id=None if plume is None else plume.label_id,
        pixel_count=None if plume is None else plume.pixel_count,
        touches_edge=None if plume is None else plume.touches_edge,
        assumptions=tuple(assumptions),
    )
    bad = [k for k, v in vars(record).items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise DomainError(f"{', '.join(bad)} not finite for an IME of {ime_kg:g} kg over {area_m2:g} m2: "
                          "the constants section or the inputs are out of range")
    return record


def quantify_plume(
    field: EnhancementField,
    plume: PlumeMask,
    wind: WindConfig,
    constants: GasConstants = GasConstants(),
) -> PlumeRecord:
    """Quantify one segmented plume from the field's enhancement and sigma layers."""
    ime, sigma_ime = integrate_ime(field.crop(plume.window), plume.mask, constants)
    return quantify(ime, sigma_ime, plume.area_m2, wind, plume)
