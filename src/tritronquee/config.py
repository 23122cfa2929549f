"""Run configuration: tolerances, radii and path policies.

Every knob has a default matching the module it feeds; a config file is a
plain ``key = value`` text file (TOML-style scalars, ``#`` comments).  The
canonical dump of the effective configuration is hashed into catalog headers
so that runs are reproducible and comparable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ToolConfig:
    # elliptic periods
    tol_root: float = 1e-12
    tol_quad: float = 1e-10
    tol_legendre: float = 1e-8
    tol_cut: float = 1e-9
    degeneracy_rel: float = 1e-6

    # stokes complex
    escape_factor: float = 10.0
    merge_factor: float = 1e-4
    tol_stokes: float = 1e-6
    trace_rtol: float = 1e-9

    # B-S-B solver
    tol_newton: float = 1e-10
    newton_max_iter: int = 50
    newton_max_halvings: int = 30

    # oscillator monodromy
    tol_ode: float = 1e-12
    tol_wkb: float = 1e-10
    tol_dep: float = 1e-9
    disc_alpha: float = 1.0
    disc_eps: float = 1.0

    # Painleve tracker
    tol_seed: float = 1e-10
    tol_match: float = 1e-8
    tol_fit: float = 1e-6
    blowup_threshold: float = 1e4
    fit_radius: float = 0.25
    laurent_order: int = 16
    z_seed: float = 40.0
    seed_margin: float = math.pi / 10

    def canonical_dump(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()[:16]


def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def load_config(path: str | None) -> ToolConfig:
    """Read ``key = value`` lines; unknown keys raise ValueError."""
    cfg = ToolConfig()
    if path is None:
        return cfg
    known = {f.name: f.type for f in fields(ToolConfig)}
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            parsed = _parse_scalar(value)
            if isinstance(getattr(ToolConfig(), key), int) and not isinstance(parsed, bool):
                parsed = int(parsed)
            elif isinstance(getattr(ToolConfig(), key), float):
                parsed = float(parsed)
            overrides[key] = parsed
    return replace(cfg, **overrides)
