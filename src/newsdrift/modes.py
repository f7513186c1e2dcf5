"""Run modes: each intervention and ablation name with the one record of what it
does. No other module names a mode; each reads its record's fields."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Treatment:
    """What an intervention does to the articles an agent reads."""
    rewrite: bool = False   # each read of a year is rewritten before any agent reads it
    critique: bool = False  # each batch is reflected on beside a devil's-advocate critique


@dataclass(frozen=True)
class Kept:
    """What of the framework a run keeps; an ablation removes one part."""
    selection: bool = True   # the selection exchange; without it an agent reads its offer's head
    bodies: bool = True      # article bodies; without them an agent reads headlines only
    dissonance: bool = True  # dissonance resolution, in the reflection prompt and its mock rule
    profile: bool = True     # the profile in the reflection prompt; selection and survey keep it


TREATMENTS = {"baseline": Treatment(), "debias": Treatment(rewrite=True),
              "devils_advocate": Treatment(critique=True)}
# at most one framework component is removed per run, so one name says which
KEPT = {"none": Kept(), "no_cognitive": Kept(dissonance=False), "no_profile": Kept(profile=False),
        "no_selection": Kept(selection=False), "title_only": Kept(bodies=False)}
INTERVENTIONS, ABLATIONS = tuple(TREATMENTS), tuple(KEPT)


def checked(kind: str, name, names: tuple[str, ...]) -> str:
    """The stored spelling of a mode name: "-" becomes "_"; unknown names raise."""
    normalized = name.replace("-", "_") if isinstance(name, str) else name
    if normalized not in names:
        raise ConfigError(f"unknown {kind}: {name!r} (choose from {names})")
    return normalized
