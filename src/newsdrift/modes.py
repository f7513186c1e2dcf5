"""Run modes: the intervention and the ablation, each one checked name."""

from __future__ import annotations

from .errors import ConfigError

INTERVENTIONS = ("baseline", "debias", "devils_advocate")

# at most one framework component is removed per run, so one name says which
ABLATIONS = ("none", "no_cognitive", "no_profile", "no_selection", "title_only")


def _checked(kind: str, name, names: tuple[str, ...]) -> str:
    """The stored spelling of a mode name: "-" becomes "_"; unknown names raise."""
    normalized = name.replace("-", "_") if isinstance(name, str) else name
    if normalized not in names:
        raise ConfigError(f"unknown {kind}: {name!r} (choose from {names})")
    return normalized


def validate_intervention(mode: str) -> str:
    return _checked("intervention", mode, INTERVENTIONS)


def validate_ablation(name: str) -> str:
    return _checked("ablation", name, ABLATIONS)
