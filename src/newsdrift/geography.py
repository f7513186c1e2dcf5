"""US state to census region mapping."""

from __future__ import annotations

from .errors import ValidationError

_REGION_STATES = {
    "New England": ("CT", "MA", "ME", "NH", "RI", "VT"),
    "Middle Atlantic": ("NJ", "NY", "PA"),
    "East North Central": ("IL", "IN", "MI", "OH", "WI"),
    "West North Central": ("IA", "KS", "MN", "MO", "ND", "NE", "SD"),
    "South Atlantic": ("DE", "FL", "GA", "MD", "NC", "SC", "VA", "WV"),
    "East South Central": ("AL", "KY", "MS", "TN"),
    "West South Central": ("AR", "LA", "OK", "TX"),
    "Mountain": ("AZ", "CO", "ID", "MT", "NM", "NV", "UT", "WY"),
    "Pacific": ("AK", "CA", "HI", "OR", "WA"),
}

REGIONS = tuple(_REGION_STATES)

STATE_TO_REGION = {
    state: region for region, states in _REGION_STATES.items() for state in states
}


def state_to_region(state: str) -> str:
    """Return the census region containing a two-letter state code."""
    try:
        return STATE_TO_REGION[state.upper()]
    except KeyError:
        raise ValidationError(f"unknown state code: {state!r}") from None
