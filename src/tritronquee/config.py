"""Run configuration: tolerances, radii and path policies.

Every knob takes its default from the module constant it overrides and is
read by the catalog, so the config hash in a catalog header describes the
values its entries were computed with.  The comment over each group names
the other subcommands that read it.  A config file is a plain
``key = value`` text file with ``#`` comments.  An integer key takes an
integer literal; every other key is a float and takes any finite number
> 0.  A line that breaks a rule raises ValueError with its ``path:lineno``.
"""

from __future__ import annotations

import math
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

    # Painleve tracker (track; the catalog's route 3, which starts route 2)
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
        import hashlib  # here only, so that importing the package skips it

        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()[:16]


def load_config(path: str | None) -> ToolConfig:
    """Read ``key = value`` lines; unknown keys and values that their key
    does not take raise ValueError."""
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
            integer = isinstance(getattr(cfg, key), int)
            try:
                parsed = int(value) if integer else float(value)
                valid = integer or 0.0 < parsed < math.inf
            except ValueError:
                valid = False
            if not valid:
                kind = "an integer" if integer else "a finite number > 0"
                raise ValueError(f"{path}:{lineno}: {key} takes {kind}, "
                                 f"not {value!r}")
            overrides[key] = parsed
    return replace(cfg, **overrides)
