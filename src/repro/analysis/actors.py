"""Actor profiling: who attacks, and who gets attacked.

The paper frames its findings as "patterns indicative of both opportunistic
and defensive behaviors". This module profiles the actors behind detected
sandwiches: attacker concentration (few bots, many attacks), repeat
victimization, and per-attacker economics — the natural follow-up analyses
a measurement team would run on the same data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.figures import format_table
from repro.core.quantify import QuantifiedSandwich
from repro.errors import ConfigError


@dataclass(frozen=True)
class AttackerProfile:
    """One attacker account's aggregate activity."""

    address: str
    attacks: int
    gains_usd: float
    tips_lamports: int
    victims: int


@dataclass(frozen=True)
class VictimProfile:
    """One victim account's aggregate exposure."""

    address: str
    times_sandwiched: int
    losses_usd: float


@dataclass
class ActorStudy:
    """Attacker and victim profiles over one campaign's detections."""

    attackers: list[AttackerProfile] = field(default_factory=list)
    victims: list[VictimProfile] = field(default_factory=list)

    @property
    def attack_count(self) -> int:
        """Total attacks profiled."""
        return sum(profile.attacks for profile in self.attackers)

    def attacker_concentration(self, top: int = 5) -> float:
        """Share of all attacks carried out by the ``top`` attackers.

        Sandwiching is an industrialized activity: a handful of bots run
        most attacks, so this should be high.
        """
        if not self.attackers:
            return 0.0
        total = self.attack_count
        top_share = sum(profile.attacks for profile in self.attackers[:top])
        return top_share / total if total else 0.0

    def repeat_victim_fraction(self) -> float:
        """Share of victims sandwiched more than once."""
        if not self.victims:
            return 0.0
        repeats = sum(1 for v in self.victims if v.times_sandwiched > 1)
        return repeats / len(self.victims)

    def render(self, top: int = 10) -> str:
        """Plain-text leaderboards."""
        attacker_rows = [
            [
                profile.address[:12],
                str(profile.attacks),
                str(profile.victims),
                f"{profile.gains_usd:,.2f}",
                f"{profile.tips_lamports:,}",
            ]
            for profile in self.attackers[:top]
        ]
        victim_rows = [
            [
                profile.address[:12],
                str(profile.times_sandwiched),
                f"{profile.losses_usd:,.2f}",
            ]
            for profile in self.victims[:top]
        ]
        return (
            f"Attackers (top {min(top, len(self.attackers))} of "
            f"{len(self.attackers)}; top-5 run "
            f"{self.attacker_concentration():.0%} of attacks)\n"
            + format_table(
                ["attacker", "attacks", "victims", "gains (USD)", "tips"],
                attacker_rows,
            )
            + f"\n\nVictims (top {min(top, len(self.victims))} of "
            f"{len(self.victims)}; "
            f"{self.repeat_victim_fraction():.0%} hit more than once)\n"
            + format_table(
                ["victim", "times hit", "losses (USD)"], victim_rows
            )
        )


def profile_actors(quantified: list[QuantifiedSandwich]) -> ActorStudy:
    """Build attacker/victim profiles from quantified detections.

    Raises:
        ConfigError: on an empty detection list.
    """
    if not quantified:
        raise ConfigError("no detections to profile")
    attacks_by_attacker: Counter[str] = Counter()
    gains_by_attacker: dict[str, float] = {}
    tips_by_attacker: dict[str, int] = {}
    victims_by_attacker: dict[str, set[str]] = {}
    hits_by_victim: Counter[str] = Counter()
    losses_by_victim: dict[str, float] = {}

    for item in quantified:
        attacker = item.event.attacker
        victim = item.event.victim
        attacks_by_attacker[attacker] += 1
        gains_by_attacker[attacker] = gains_by_attacker.get(attacker, 0.0) + (
            item.attacker_gain_usd or 0.0
        )
        tips_by_attacker[attacker] = (
            tips_by_attacker.get(attacker, 0) + item.event.tip_lamports
        )
        victims_by_attacker.setdefault(attacker, set()).add(victim)
        hits_by_victim[victim] += 1
        losses_by_victim[victim] = losses_by_victim.get(victim, 0.0) + (
            item.victim_loss_usd or 0.0
        )

    attackers = sorted(
        (
            AttackerProfile(
                address=address,
                attacks=count,
                gains_usd=gains_by_attacker[address],
                tips_lamports=tips_by_attacker[address],
                victims=len(victims_by_attacker[address]),
            )
            for address, count in attacks_by_attacker.items()
        ),
        key=lambda profile: profile.attacks,
        reverse=True,
    )
    victims = sorted(
        (
            VictimProfile(
                address=address,
                times_sandwiched=count,
                losses_usd=losses_by_victim[address],
            )
            for address, count in hits_by_victim.items()
        ),
        key=lambda profile: profile.losses_usd,
        reverse=True,
    )
    return ActorStudy(attackers=attackers, victims=victims)
