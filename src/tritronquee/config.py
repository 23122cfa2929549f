"""Run configuration: tolerances, radii and path policies.

Every knob takes its default from the module constant it overrides and is
read by the catalog, so the config hash in a catalog header describes the
values its entries were computed with.  The comment over each group names
the other subcommands that read it.  A config file is a plain
``key = value`` text file (TOML-style scalars, ``#`` comments).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from . import bsb, oscillator, painleve


@dataclass(frozen=True)
class ToolConfig:
    # B-S-B solver (bsb, refine)
    tol_newton: float = bsb.TOL_NEWTON

    # oscillator monodromy (refine)
    tol_ode: float = oscillator.TOL_ODE
    tol_dep: float = oscillator.TOL_DEP
    disc_alpha: float = oscillator.DISC_ALPHA
    disc_eps: float = oscillator.DISC_EPS

    # Painleve tracker (track; the catalog reads it with --painleve only)
    tol_seed: float = painleve.TOL_SEED
    tol_match: float = painleve.TOL_MATCH
    tol_fit: float = painleve.TOL_FIT
    blowup_threshold: float = painleve.BLOWUP_THRESHOLD
    fit_radius: float = painleve.FIT_RADIUS
    laurent_order: int = painleve.LAURENT_ORDER
    z_seed: float = painleve.Z_SEED_MIN
    seed_margin: float = painleve.SEED_MARGIN

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
    known = {f.name for f in fields(ToolConfig)}
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
            default = getattr(cfg, key)
            if isinstance(default, int) and type(parsed) is not int:
                raise ValueError(f"{path}:{lineno}: {key} takes an integer, "
                                 f"not {value!r}")
            if isinstance(default, float):
                parsed = float(parsed)
            overrides[key] = parsed
    return replace(cfg, **overrides)
