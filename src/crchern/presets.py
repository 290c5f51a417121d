"""Named ring presets for the command-line calculator.

A preset string is factor specs joined with ``*``, without spaces; any
other separator, the Unicode multiplication sign included, makes an
unknown preset.  N, G and M are ASCII digits
(``ring.read_integer``): no sign, ``_``, space or other digit.

    cp:N         projective N-space:   Q[g]/(g^(N+1))
    surface:G    genus-G surface even part:  Q[g]/(g^2)
    fpp          fake projective plane even part:  Q[g]/(g^3)
    nilsquare:M  M degree-2 classes with square zero: Q[t1..tM]/(ti^2),
                 M <= MAX_NILSQUARE

Generator names are assigned per factor from each preset's preferred
list, skipping names already taken, so ``cp:2`` alone uses ``t`` while
``fpp*cp:2`` uses ``t`` and ``h``.
"""

from __future__ import annotations

from .cohomology.ring import RATIONALS, Generator, RingPresentation, make_ring
from .cohomology.ring import quote, read_integer

_FALLBACK_NAMES = ("t", "h", "u", "v", "w", "y")

# Twice prop-1-4's largest --m.  Every ring operation walks all M
# exponents, so at 24 a term pair costs two to three times what it costs
# with one generator.
MAX_NILSQUARE = 24

_PREFERRED = {
    "cp": ("t", "h", "u", "v"),
    "surface": ("s", "u", "v"),
    "fpp": ("t", "u", "v"),
}


class PresetError(ValueError):
    pass


def _pick_name(preset: str, taken: set[str]) -> str:
    for name in _PREFERRED.get(preset, ()) + _FALLBACK_NAMES:
        if name not in taken:
            taken.add(name)
            return name
    raise PresetError("ran out of generator names")


def _parse_factor(spec: str, taken: set[str]) -> list[Generator]:
    head, _, arg = spec.partition(":")
    if head == "cp":
        n = _int_at_least(arg, 1, "cp:N needs N >= 1")
        return [Generator(_pick_name("cp", taken), 2, n + 1)]
    if head == "surface":
        _int_at_least(arg, 0, "surface:G needs G >= 0")  # the ring does not depend on G
        return [Generator(_pick_name("surface", taken), 2, 2)]
    if head == "fpp":
        if arg:
            raise PresetError("fpp takes no parameter")
        return [Generator(_pick_name("fpp", taken), 2, 3)]
    if head == "nilsquare":
        m = _int_at_least(arg, 1, "nilsquare:M needs M >= 1")
        if m > MAX_NILSQUARE:
            raise PresetError(f"nilsquare:M needs M <= {MAX_NILSQUARE}")
        gens = []
        for j in range(1, m + 1):
            name = f"t{j}"
            if name in taken:
                raise PresetError(f"generator name collision for {name!r}")
            taken.add(name)
            gens.append(Generator(name, 2, 2))
        return gens
    raise PresetError(f"unknown preset {quote(head)}")


def _int_at_least(arg: str, low: int, msg: str) -> int:
    """``read_integer(arg)`` if it is ``>= low``, else ``PresetError(msg)``."""
    try:
        value = read_integer(arg)
    except ValueError:
        value = None
    if value is None or value < low:
        raise PresetError(msg)
    return value


def preset_ring(spec: str) -> RingPresentation:
    """Build the rational ring described by a preset string.

    Each factor's names are ``NAME``s taken once (``_pick_name``, the
    nilsquare collision check) and its truncations are at least 2, so
    :func:`make_ring` has nothing left to refuse.
    """
    taken: set[str] = set()
    gens: list[Generator] = []
    for part in spec.split("*"):
        if not part:
            raise PresetError(f"empty factor in preset {quote(spec)}")
        gens.extend(_parse_factor(part, taken))
    return make_ring(gens, RATIONALS)
