"""Run configuration: flat key-value config files with flag overrides."""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from typing import Optional, get_type_hints

from .errors import DomainError
from .scenarios import SCENARIOS


@dataclass
class RunConfig:
    """Resolved parameters of a CLI run.

    Precedence is defaults < config file < command-line flags.  The resolved
    mapping is embedded verbatim in every output file, so identical configs
    reproduce identical bytes.
    """

    scenario: str = "constant-curvature"
    a: float = 3.0
    k: float = 1.0
    n: int = 2
    step: float = 1e-3
    seed: int = 0
    samples: int = 32
    t_min: float = 20.0
    horizon: float = 40.0
    out: str = "results"
    workers: int = 0
    green_tol: float = 1e-8
    green_r0: float = 8.0
    green_max_doublings: int = 12
    green_t_obs: float = 20.0
    drift_tol: float = 1e-5
    envelope_slack: float = 0.05
    chunk_size: int = 28
    x0: float = 0.0
    b0: float = 0.0
    t_end: float = 10.0
    # keys set by a config file or a flag; presets fill in only the others
    _explicit: set = field(default_factory=set, init=False, repr=False, compare=False)

    def validate(self) -> "RunConfig":
        if self.scenario not in SCENARIOS:
            raise DomainError(f"unknown scenario {self.scenario!r}; choose from {', '.join(SCENARIOS)}")
        for name in ("step", "green_tol", "drift_tol", "envelope_slack"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if not (self.horizon > self.t_min > 0):
            raise DomainError("need horizon > t_min > 0")
        if self.samples < 1 or self.n < 1:
            raise DomainError("samples and n must be >= 1")
        if self.workers < 0:
            raise DomainError("workers must be >= 0")
        if self.chunk_size < 1:
            raise DomainError("chunk_size must be >= 1")
        if self.green_max_doublings < 0:
            raise DomainError("green_max_doublings must be >= 0")
        if not -1.0 <= self.b0 <= 1.0:
            raise DomainError("b0 must lie in [-1, 1]")
        return self

    def resolved_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            out[f.name] = getattr(self, f.name)
        return out

    def apply_mapping(self, mapping: dict) -> "RunConfig":
        types = get_type_hints(type(self))
        for key, raw in mapping.items():
            if raw is None:
                continue
            if key not in types or key.startswith("_"):
                raise DomainError(f"unknown config key {key!r}")
            try:
                setattr(self, key, types[key](raw))
            except ValueError:
                raise DomainError(f"config key {key!r} needs {types[key].__name__}, got {raw!r}") from None
            self._explicit.add(key)
        return self

    def apply_preset(self, preset: dict) -> "RunConfig":
        """Take the preset's value for every key no config file or flag has set."""
        for key, value in preset.items():
            if key not in self._explicit:
                setattr(self, key, value)
        return self


def load_config_file(path: str) -> dict:
    """Read a sectioned key=value file into a flat mapping.

    The ``[warp]`` section maps onto scenario parameters (kind, a, k, n);
    the ``[run]`` section onto everything else.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise DomainError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise DomainError(f"cannot read config file {path}")
    flat = {}
    if parser.has_section("warp"):
        warp = parser["warp"]
        if "kind" in warp:
            flat["scenario"] = warp["kind"]
        for key in ("a", "k", "n"):
            if key in warp:
                flat[key] = warp[key]
    if parser.has_section("run"):
        for key, value in parser["run"].items():
            flat[key] = value
    return flat


def build_config(config_path: Optional[str], flag_mapping: dict) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        cfg.apply_mapping(load_config_file(config_path))
    cfg.apply_mapping({k: v for k, v in flag_mapping.items() if v is not None})
    return cfg.validate()
