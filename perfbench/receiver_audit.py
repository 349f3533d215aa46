"""receiver-audit: design audits of every bundled receiver, plus device audits.

A design audit builds a receiver, its reversed space, its constraint system
and attack family, samples members, verifies each one and scores Eve's
guess per basis.  Most of its time is in ``attacks``, with ``linprog``
sampling the largest share; it touches ``fockspace`` only with single
photons.  A device audit fuzzes the APD receiver model, rebuilds the
blinded receiver from the vulnerabilities found and verifies a bright-pulse
attack on it; nearly all of its time is in ``fuzz``.
"""

from dataclasses import dataclass

import numpy as np

import qkdlab.attacks as atk
import qkdlab.fuzz as fz
import qkdlab.receivers as rc

from spans import NullTracer

CONFIGS = (
    ("interferometric-6mode", None),
    ("interferometric-defended-10mode", None),
    ("interferometric-2mode", None),
    ("interferometric-2mode", "single-window"),
    ("polarization-threshold", None),
    ("blinded-bright", None),
    ("ideal-bb84", None),
)
SAMPLES = 4
GUESS_TOL = 1e-9


@dataclass
class DesignAudit:
    receiver: rc.ReceiverModel
    dimension: int
    system: atk.ConstraintSystem
    family: atk.AttackFamily
    oblivious: list
    guesses: list          # (conditional states, basis, guess or None)


@dataclass
class DeviceAudit:
    report: fz.FuzzReport
    receiver: rc.ReceiverModel
    oblivious: bool


def design_label(kind, variant):
    return kind if variant is None else f"{kind}/{variant}"


class Workload:
    def __init__(self, seed, expect, tiny, workdir, root):
        self.expect = expect
        self.rng = np.random.default_rng(seed)
        self.device = fz.make_apd_receiver_device(fz.APDParams())
        self.campaign = fz.default_config(self.device.params)
        self.hand_built = rc.interpretation_structure(
            rc.make_receiver("blinded-bright"))
        self.configs = (CONFIGS[0], CONFIGS[-1]) if tiny else CONFIGS
        self.design("ideal-bb84", None, NullTracer())

    def run_pass(self, rec, tracer, pass_index):
        for kind, variant in self.configs:
            rec.attempt(design_label(kind, variant),
                        lambda: self.design(kind, variant, tracer),
                        lambda audit: self.check_design(kind, variant, audit),
                        known=self.expect["known_defects"].get(
                            (kind, variant)))
        seed = int(self.rng.integers(2 ** 31))
        rec.attempt("device", lambda: self.device_audit(seed, tracer),
                    self.check_device)

    def design(self, kind, variant, tracer):
        with tracer.span("receivers.make_receiver"):
            receiver = rc.make_receiver(kind, variant)
        with tracer.span("receivers.reversed_space"):
            dimension = len(rc.reversed_space(receiver))
        tracer.count("receivers.reversed_space.dim_sum", dimension)
        with tracer.span("attacks.build_constraint_system"):
            system = atk.build_constraint_system(receiver)
        with tracer.span("attacks.synthesize_attacks"):
            family = atk.synthesize_attacks(system)
        members = [family.canonical]
        for _ in range(SAMPLES):
            with tracer.span("attacks.sample"):
                members.append(family.sample(self.rng))
        with tracer.span("attacks.verify_oblivious"):
            oblivious = [atk.verify_oblivious(m, system=system).oblivious
                         for m in members]
        tracer.count("attacks.verified", len(oblivious))
        tracer.count("attacks.oblivious", sum(oblivious))
        bases = sorted({basis for basis, _ in system.alice_labels})
        guesses = []
        with tracer.span("attacks.eve_guess"):
            for member in members:
                conditional = atk.eve_conditional_states(member, system=system)
                for basis in bases:
                    try:
                        guess = atk.eve_guess_probability(conditional, basis)
                    except atk.AttackError:
                        guess = None  # checked below: must have no detections
                    guesses.append((conditional, basis, guess))
        return DesignAudit(receiver, dimension, system, family, oblivious,
                           guesses)

    def check_design(self, kind, variant, audit):
        want = self.expect["reversed_dims"].get((kind, variant))
        if want is not None and audit.dimension != want:
            return f"reversed space of {kind}/{variant} has dimension " \
                   f"{audit.dimension}, expected {want}"
        trivial = self.expect["only_trivial"].get(kind)
        if trivial is not None and audit.family.only_trivial != trivial:
            return f"{kind}: only_trivial is {audit.family.only_trivial}"
        if kind == "interferometric-6mode":
            faked = atk.faked_states_attack(audit.receiver,
                                            system=audit.system)
            if not audit.family.contains(faked):
                return "6-mode family lacks the faked-states attack"
        if not all(audit.oblivious):
            return f"{kind}: a family member is not oblivious"
        for conditional, basis, guess in audit.guesses:
            if guess is None:
                # acceptance criterion 6: no sifted detections in the basis
                weight = conditional.basis_density((basis, 0))[1] + \
                    conditional.basis_density((basis, 1))[1]
                if weight >= atk.WEIGHT_TOL:
                    return f"{kind}: eve_guess_probability failed on " \
                           f"{basis} with detections present"
            elif not 0.5 - GUESS_TOL <= guess <= 1 + GUESS_TOL:
                return f"{kind}: guess probability {guess} on {basis}"
        return None

    def device_audit(self, seed, tracer):
        with tracer.span("fuzz.run_fuzz_campaign"):
            report = fz.run_fuzz_campaign(self.device, self.campaign,
                                          seed=seed)
        tracer.count("fuzz.probes", report.test_cases_run)
        tracer.count("fuzz.anomalies", len(report.anomalies))
        with tracer.span("receivers.make_receiver"):
            receiver = rc.make_receiver(
                "blinded-bright",
                from_vulnerabilities=report.derived_vulnerabilities)
        with tracer.span("attacks.build_constraint_system"):
            system = atk.build_constraint_system(receiver)
        with tracer.span("attacks.synthesize_attacks"):
            atk.synthesize_attacks(system)
        amp = float(self.rng.uniform(0.0, 1.0))
        with tracer.span("attacks.bright_pulse_attack"):
            attack = atk.bright_pulse_attack(receiver, computational_amp=amp,
                                             system=system)
        with tracer.span("attacks.verify_oblivious"):
            oblivious = atk.verify_oblivious(attack, system=system).oblivious
        tracer.count("attacks.verified")
        tracer.count("attacks.oblivious", oblivious)
        return DeviceAudit(report, receiver, oblivious)

    def check_device(self, audit):
        missing = self.expect["fuzz_properties"] - \
            set(audit.report.properties_found)
        if missing:
            return f"fuzz campaign missed {sorted(missing)}"
        if rc.interpretation_structure(audit.receiver) != self.hand_built:
            return "receiver rebuilt from vulnerabilities differs"
        if not audit.oblivious:
            return "bright-pulse attack is not oblivious"
        return None

    def named(self, rec):
        design = rec.pooled(design_label(k, v) for k, v in self.configs)
        return {
            "audit_design_p50_ms": (rec.median_of(design) * 1e3, "ms"),
            "audit_design_tail_ms": rec.tail(design, 1e3, "ms"),
            "audit_device_p50_ms": (rec.median("device") * 1e3, "ms"),
        }

    def layers(self, tracer, passes):
        probes = tracer.counts["fuzz.probes"]
        names = ("receivers.make_receiver", "receivers.reversed_space",
                 "attacks.build_constraint_system",
                 "attacks.synthesize_attacks", "attacks.sample",
                 "attacks.verify_oblivious", "attacks.eve_guess",
                 "fuzz.run_fuzz_campaign")
        out = {f"{name}.busy_s": tracer.busy(name) / passes
               for name in names}
        out.update({
            "receivers.reversed_space.dim_sum":
                tracer.counts["receivers.reversed_space.dim_sum"] / passes,
            "attacks.sample.calls": tracer.calls("attacks.sample") / passes,
            "attacks.oblivious_ratio": tracer.counts["attacks.oblivious"]
                / max(tracer.counts["attacks.verified"], 1),
            "fuzz.probes": probes / passes,
            "fuzz.us_per_probe":
                tracer.busy("fuzz.run_fuzz_campaign") * 1e6 / max(probes, 1),
            "fuzz.anomaly_ratio":
                tracer.counts["fuzz.anomalies"] / max(probes, 1),
        })
        return out

    def close(self):
        pass

