"""Run configuration: file schema, defaults, and hashing.

The configuration file is flat JSON; every key is optional and falls back to
the defaults below (30 GHz carrier, 1 cm wavelength, -20 dBm noise, 0.5 W
budget, relative permittivity 2, movement box of +/- 100 wavelengths, 8
transmit antennas).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .errors import ConfigurationError
from .medium import MediumParams
from .optimizer import OptimizerConfig, check_integer


_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def dbm_to_watts(dbm: float) -> float:
    """The power of dbm in watts; ConfigurationError if it overflows a float."""
    try:
        return 10.0 ** (dbm / 10.0) / 1000.0
    except OverflowError:
        raise ConfigurationError(f"{dbm} dBm overflows a power in watts") from None


def _non_standard_constant(token: str):
    """Refuse the NaN, Infinity and -Infinity tokens that Python's json reads
    but JSON does not define: a configuration value is a finite number."""
    raise ConfigurationError(f"{token} is not a JSON number; values must be finite")


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a RunConfig field's type hint: an int takes no float
    or bool, a float any number, a list checks each element, Optional takes null."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union:                  # Optional[...]
        return any(_has_type(value, arg) for arg in args)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    number = (int, float) if hint is float else hint
    return isinstance(value, number) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """Everything a batch run needs: medium, scenario shape, optimizer stops, grids."""

    wavelength_m: float = 0.01
    noise_power_dbm: float = -20.0
    total_power_w: float = 0.5
    relative_permittivity: float = 2.0
    region_half_side_m: Optional[float] = None     # defaults to 100 wavelengths
    coverage_half_side_m: float = 100.0
    antenna_count: int = 8
    user_count: int = 8
    seed: int = 1
    repetitions: int = 100
    monte_carlo_samples: int = 1_000_000
    users_grid: List[int] = field(default_factory=lambda: [1, 2, 4, 8])
    power_grid_w: List[float] = field(default_factory=lambda: [0.125, 0.25, 0.5, 1.0, 2.0])
    granularity_grid_deg: List[float] = field(default_factory=lambda: [10, 30, 50, 80])
    configurations: List[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    max_outer_iterations: int = 100
    convergence_tol: float = 1e-4

    def __post_init__(self):
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            if not _has_type(value := getattr(self, f.name), hints[f.name]):
                raise ConfigurationError(f"{f.name} must be {f.type}, got {value!r}")
        for users in (self.user_count, *self.users_grid):
            if users > self.antenna_count:
                raise ConfigurationError(f"{users} users exceed {self.antenna_count} antennas")
        check_integer(self.repetitions, "repetitions")
        check_integer(self.seed, "seed", 0)
        self.medium()                     # checks the medium's values

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_non_standard_constant)
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"configuration must be a JSON object, got a JSON {_JSON_TYPES[type(raw)]}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown configuration keys: {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def medium(self) -> MediumParams:
        return MediumParams(wavelength=self.wavelength_m,
                            relative_permittivity=self.relative_permittivity,
                            noise_power=dbm_to_watts(self.noise_power_dbm))

    def optimizer(self) -> OptimizerConfig:
        return OptimizerConfig(max_outer_iterations=self.max_outer_iterations,
                               convergence_tol=self.convergence_tol)
