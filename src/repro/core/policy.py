"""Protection modes and the configuration of the defense.

The four modes carry the paper's evaluation names (Section VI.A):

- ``ORIGIN`` - unprotected out-of-order baseline.
- ``BASELINE`` - every security-dependent memory access is unsafe: it
  may not issue until its security-dependence row clears.
- ``CACHE_HIT`` - suspect accesses issue; L1D hits proceed, L1D misses
  are discarded and re-issued once the dependence clears.
- ``CACHE_HIT_TPBUF`` - as above, but a suspect L1D miss that does not
  match the S-Pattern (per TPBuf) proceeds as a normal miss.

The enum is only a spelling: each value is the name of the
``repro.core.defense`` registry entry that implements the mode, and a
:class:`SecurityConfig` stores that name.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Optional, Tuple

from ..errors import DefenseConfigError
from ..memory.replacement import SpeculativeLRUPolicy


class ProtectionMode(Enum):
    """The paper's four configurations, spelled as an enum."""

    ORIGIN = "origin"
    BASELINE = "baseline"
    CACHE_HIT = "cache_hit"
    CACHE_HIT_TPBUF = "cache_hit_tpbuf"


@dataclass(frozen=True)
class SecurityConfig:
    """All knobs of the Conditional Speculation mechanism.

    The defense is referenced *by name* (:attr:`defense`, a
    ``repro.core.defense`` registry key) so configs stay picklable for
    spawn-based parallel executors.  Any accepted spelling — a
    :class:`ProtectionMode`, a registry name or an alias — is
    normalized to the canonical name on construction, so configs for
    the same defense compare and hash equal.  ``mode=`` is an
    init-only spelling of the same field.
    """

    #: Registry name of the active defense (canonical after __init__).
    defense: str = ""
    #: LRU-metadata policy for speculative L1D hits (Section VII.A).
    lru_policy: SpeculativeLRUPolicy = SpeculativeLRUPolicy.NORMAL
    #: Ablation: clear a producer's matrix column when it *resolves*
    #: (branch outcome known / store address computed) instead of the
    #: paper's issue-time clearance.
    clear_on_resolve: bool = False
    #: Ablation (Section VI.C(1)): only branch instructions act as
    #: security-dependence producers (no memory-memory edges).
    branch_only_matrix: bool = False
    #: Section VII.B extension: stall unsafe NPC fetches that miss L1I.
    icache_filter: bool = False
    #: Init-only spelling of :attr:`defense`.
    mode: InitVar[Optional[ProtectionMode]] = None

    def __post_init__(self, mode: Optional[ProtectionMode]) -> None:
        from .defense import normalize_defense_name

        name = normalize_defense_name(self.defense or mode or "origin")
        if mode is not None and normalize_defense_name(mode) != name:
            raise DefenseConfigError(
                f"mode '{normalize_defense_name(mode)}' conflicts with "
                f"defense '{name}'; give one of them"
            )
        object.__setattr__(self, "defense", name)

    @staticmethod
    def for_defense(name: object, **overrides: object) -> "SecurityConfig":
        """A config running the named defense (zoo names, legacy mode
        spellings and deprecated aliases all accepted)."""
        return SecurityConfig(defense=name, **overrides)  # type: ignore[arg-type]

    @staticmethod
    def origin() -> "SecurityConfig":
        return SecurityConfig.for_defense("origin")

    @staticmethod
    def baseline() -> "SecurityConfig":
        return SecurityConfig.for_defense("baseline")

    @staticmethod
    def cache_hit() -> "SecurityConfig":
        return SecurityConfig.for_defense("cache_hit")

    @staticmethod
    def cache_hit_tpbuf() -> "SecurityConfig":
        return SecurityConfig.for_defense("cache_hit_tpbuf")


#: The four evaluation configurations of the paper, in Figure-5 order.
#: Deprecated for option parsing: enumerate the zoo with
#: :func:`repro.core.defense.defense_names` instead.
EVALUATION_MODES = tuple(ProtectionMode)

#: The same four configurations as defense registry names.
PAPER_DEFENSES: Tuple[str, ...] = tuple(mode.value for mode in EVALUATION_MODES)
