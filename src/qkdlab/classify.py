"""Attack classification by declared input/output space usage.

An eavesdropping strategy is summarized by a footprint: which spaces its
operation reads from and which it writes into.  The vocabulary splits
each side into the protocol span (states the honest parties actually
send, respectively the span the receiver's measurement responds to),
the extension beyond it (physical degrees of freedom the devices carry
but the protocol does not use), the shared environment (device
internals, labs, side emissions), and the attacker's private ancillas.

``classify`` maps a footprint to one of four classes:

* ``StateChannel`` — the attack consumes nothing but the transmitted
  protocol states and deposits nothing outside the receiver's measured
  span and the attacker's ancillas.
* ``SideChannel`` — it reads or writes extension or environment
  degrees of freedom.
* ``TrivialSideChannel`` — the only such usage is an environment write
  that affects no party (a side effect nobody can observe in-protocol).
* ``Neither`` — it never touches the quantum signal spaces at all
  (pure out-of-band spying).

The registry lists well-known attacks with their footprints, family
memberships, and expected classes, and exports the family graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

# read-side vocabulary
PROTOCOL_INPUT = "protocol-input"
EXTENDED_INPUT = "beyond-protocol-input"
ENVIRONMENT = "environment"
EVE_ANCILLA_IN = "eve-ancilla-in"
READ_VOCABULARY = frozenset(
    {PROTOCOL_INPUT, EXTENDED_INPUT, ENVIRONMENT, EVE_ANCILLA_IN})

# write-side vocabulary
PROTOCOL_OUTPUT = "protocol-output"
EXTENDED_OUTPUT = "beyond-protocol-output"
EVE_ANCILLA_OUT = "eve-ancilla-out"
WRITE_VOCABULARY = frozenset(
    {PROTOCOL_OUTPUT, EXTENDED_OUTPUT, ENVIRONMENT, EVE_ANCILLA_OUT})

STATE_CHANNEL = "StateChannel"
SIDE_CHANNEL = "SideChannel"
TRIVIAL_SIDE_CHANNEL = "TrivialSideChannel"
NEITHER = "Neither"
CLASSES = (STATE_CHANNEL, SIDE_CHANNEL, TRIVIAL_SIDE_CHANNEL, NEITHER)

# family tags
FAKED_STATES = "faked-states"
REVERSED_SPACE = "reversed-space"
DETECTOR_EFFICIENCY_MISMATCH = "detector-efficiency-mismatch"
BRIGHT_ILLUMINATION = "bright-illumination"
TROJAN_HORSE = "trojan-horse"
FAMILY_TAGS = frozenset({FAKED_STATES, REVERSED_SPACE,
                         DETECTOR_EFFICIENCY_MISMATCH, BRIGHT_ILLUMINATION,
                         TROJAN_HORSE})

# (special case, general case): every member of the first family is a
# member of the second
FAMILY_EDGES = (
    (DETECTOR_EFFICIENCY_MISMATCH, FAKED_STATES),
    (FAKED_STATES, REVERSED_SPACE),
)


class ClassifyError(ValueError):
    """Footprint or record outside the declared vocabulary."""


@dataclass(frozen=True)
class SpaceFootprint:
    """Declared read/write space usage of one attack.

    ``env_write_is_side_effect_only`` marks an environment write that no
    protocol party can observe; it decides between the trivial and the
    full side-channel class when the environment write is the only
    side condition.
    """

    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    env_write_is_side_effect_only: bool = False

    def __post_init__(self):
        object.__setattr__(self, "reads", frozenset(self.reads))
        object.__setattr__(self, "writes", frozenset(self.writes))
        bad = self.reads - READ_VOCABULARY
        if bad:
            raise ClassifyError(f"unknown read spaces {sorted(bad)}; "
                                f"vocabulary is {sorted(READ_VOCABULARY)}")
        bad = self.writes - WRITE_VOCABULARY
        if bad:
            raise ClassifyError(f"unknown write spaces {sorted(bad)}; "
                                f"vocabulary is {sorted(WRITE_VOCABULARY)}")

    def uses_quantum_interface(self) -> bool:
        """Whether the attack touches any signal space on either side."""
        return bool(self.reads & {PROTOCOL_INPUT, EXTENDED_INPUT}
                    or self.writes & {PROTOCOL_OUTPUT, EXTENDED_OUTPUT})

    def to_json_dict(self) -> dict:
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "env_write_is_side_effect_only":
                self.env_write_is_side_effect_only,
        }


def footprint(reads: Iterable[str] = (), writes: Iterable[str] = (),
              env_write_is_side_effect_only: bool = False) -> SpaceFootprint:
    return SpaceFootprint(frozenset(reads), frozenset(writes),
                          env_write_is_side_effect_only)


def classify(fp: SpaceFootprint) -> str:
    """Assign the attack class for a declared footprint.

    Out-of-band strategies (no signal space on either side) come first:
    watching the lab through a camera is neither kind of quantum
    attack.  Any read or write of extension/environment spaces then
    makes a side channel — downgraded to the trivial class when the
    sole side condition is an unobservable environment write.  What
    remains reads only sent states and ancillas and writes only the
    measured span and ancillas: a state channel.
    """
    if not fp.uses_quantum_interface():
        return NEITHER
    side_reads = fp.reads & {EXTENDED_INPUT, ENVIRONMENT}
    side_writes = fp.writes & {EXTENDED_OUTPUT, ENVIRONMENT}
    if side_reads or side_writes:
        if (not side_reads and side_writes == {ENVIRONMENT}
                and fp.env_write_is_side_effect_only):
            return TRIVIAL_SIDE_CHANNEL
        return SIDE_CHANNEL
    return STATE_CHANNEL


def footprint_of_attack(member) -> SpaceFootprint:
    """Auto-derive the footprint of a synthesized attack isometry.

    Synthesized attacks act on the transmitted states and route them —
    by construction of the constraint system — inside the receiver's
    measured span, so the signal side is always protocol-only; a probe
    with more than one dimension additionally reads and writes the
    attacker's ancilla.
    """
    eve_dim = int(getattr(member, "eve_dim"))
    reads = {PROTOCOL_INPUT}
    writes = {PROTOCOL_OUTPUT}
    if eve_dim > 1:
        reads.add(EVE_ANCILLA_IN)
        writes.add(EVE_ANCILLA_OUT)
    return footprint(reads, writes)


@dataclass(frozen=True)
class AttackRecord:
    """One known attack: footprint, family memberships, expected class."""

    name: str
    footprint: SpaceFootprint
    tags: frozenset
    expected_class: str
    note: str

    def __post_init__(self):
        object.__setattr__(self, "tags", frozenset(self.tags))
        bad = self.tags - FAMILY_TAGS
        if bad:
            raise ClassifyError(f"unknown family tags {sorted(bad)}")
        if self.expected_class not in CLASSES:
            raise ClassifyError(f"unknown class {self.expected_class!r}")
        if classify(self.footprint) != self.expected_class:
            raise ClassifyError(
                f"record {self.name!r} expects {self.expected_class} but "
                f"its footprint classifies as {classify(self.footprint)}")
        if FAKED_STATES in self.tags and REVERSED_SPACE not in self.tags:
            raise ClassifyError(
                f"record {self.name!r}: faked-states membership implies "
                f"reversed-space membership")
        if (DETECTOR_EFFICIENCY_MISMATCH in self.tags
                and FAKED_STATES not in self.tags):
            raise ClassifyError(
                f"record {self.name!r}: detector-efficiency-mismatch "
                f"membership implies faked-states membership")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "footprint": self.footprint.to_json_dict(),
            "tags": sorted(self.tags),
            "class": self.expected_class,
            "note": self.note,
        }


def registry() -> Tuple[AttackRecord, ...]:
    """Known attacks with their space footprints and family tags."""
    return (
        AttackRecord(
            "photon-number-splitting",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT, EVE_ANCILLA_OUT}),
            frozenset(), STATE_CHANNEL,
            "Counts photons per pulse, keeps one photon of every "
            "multi-photon pulse as a private ancilla, and forwards the "
            "rest untouched; measures the kept photon after basis "
            "announcement."),
        AttackRecord(
            "large-pulse-alice",
            footprint({ENVIRONMENT, EXTENDED_INPUT}, {EXTENDED_OUTPUT}),
            frozenset({TROJAN_HORSE}), SIDE_CHANNEL,
            "Interrogates the transmitter with a bright pulse and reads "
            "the private state choice off the back-reflection, which "
            "depends on the device's internal optical configuration."),
        AttackRecord(
            "large-pulse-bob",
            footprint({ENVIRONMENT, EXTENDED_INPUT}, {EXTENDED_OUTPUT}),
            frozenset({TROJAN_HORSE}), SIDE_CHANNEL,
            "Same interrogation aimed at the receiver to learn the basis "
            "setting before the signal arrives; needs no enlarged "
            "interpretation of the receiver's measurement."),
        AttackRecord(
            "injection-locking",
            footprint({EXTENDED_INPUT}, {ENVIRONMENT}),
            frozenset(), SIDE_CHANNEL,
            "Seeds the transmitter laser with external light so each "
            "encoded state is emitted at a distinguishable wavelength, "
            "then reads the bit from the frequency."),
        AttackRecord(
            "time-shift",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT}),
            frozenset({REVERSED_SPACE}), STATE_CHANNEL,
            "Delays or advances each pulse into detector-sensitivity "
            "windows where one bit value dominates; never measures the "
            "signal, so it is not a faked-states attack."),
        AttackRecord(
            "trojan-pony",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT}),
            frozenset({FAKED_STATES, REVERSED_SPACE}), STATE_CHANNEL,
            "Measures and resends multi-photon states that a receiver "
            "treating double clicks as losses registers either as loss "
            "or as the chosen outcome."),
        AttackRecord(
            "imperfect-faraday-mirror",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT}),
            frozenset(), STATE_CHANNEL,
            "Exploits a transmitter fault that spreads the four sent "
            "states over three dimensions, where measure-resend "
            "distinguishes them better at acceptable error rates."),
        AttackRecord(
            "bright-illumination",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT, ENVIRONMENT}),
            frozenset({REVERSED_SPACE, BRIGHT_ILLUMINATION}), SIDE_CHANNEL,
            "Drives the detectors into their linear mode with bright "
            "light (a device-state change, hence the environment "
            "write) and then forces chosen clicks with shaped pulses."),
        AttackRecord(
            "fixed-apparatus",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT}),
            frozenset({REVERSED_SPACE}), STATE_CHANNEL,
            "Uses internal directions of a passive-choice receiver, "
            "such as a blocked interferometer arm, that enlarge the "
            "span its measurement responds to."),
        AttackRecord(
            "detector-efficiency-mismatch",
            footprint({PROTOCOL_INPUT}, {PROTOCOL_OUTPUT}),
            frozenset({DETECTOR_EFFICIENCY_MISMATCH, FAKED_STATES,
                       REVERSED_SPACE}), STATE_CHANNEL,
            "Sends faked states timed into the non-overlapping parts of "
            "the detectors' sensitivity windows to force specific "
            "outcomes."),
        AttackRecord(
            "camera-in-lab",
            footprint({ENVIRONMENT}, ()),
            frozenset(), NEITHER,
            "Watches the receiver operator's basis choices through a "
            "camera; no quantum signal space is read or written."),
    )


def registry_to_json_dict() -> dict:
    return {
        "schema": "attack-registry/1",
        "records": [r.to_json_dict() for r in registry()],
        "family_edges": [list(edge) for edge in FAMILY_EDGES],
    }


def registry_to_dot() -> str:
    """Graph of attacks and families; edges mean "is a special case of"."""
    lines = ["digraph attack_taxonomy {"]
    families = sorted({tag for r in registry() for tag in r.tags}
                      | {general for _, general in FAMILY_EDGES})
    for fam in families:
        lines.append(f'  "{fam}" [shape=box];')
    for record in registry():
        lines.append(f'  "{record.name}" [shape=ellipse,'
                     f' comment="{record.expected_class}"];')
        direct = set(record.tags)
        # draw only the most specific memberships; the family edges
        # carry the rest
        implied = {general for special, general in FAMILY_EDGES
                   if special in direct}
        for tag in sorted(direct - implied):
            lines.append(f'  "{record.name}" -> "{tag}";')
    for special, general in FAMILY_EDGES:
        lines.append(f'  "{special}" -> "{general}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
