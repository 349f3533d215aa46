"""
Synthesizing zero-error attacks
===============================

An attack is an isometry from the transmitted states into the channel
(plus a private probe).  It is oblivious when every forbidden receiver
outcome -- wrong bit, invalid click -- keeps amplitude exactly zero, so
the attack is invisible in the error statistics.  The synthesizer turns
a receiver model into the complete family of such isometries.
"""

import numpy as np

import qkdlab.attacks as atk
import qkdlab.receivers as rc

receiver = rc.make_receiver("interferometric-6mode")
system = atk.build_constraint_system(receiver)
print(f"constraint system: {system.n_rows} rows over {system.n_basis} basis directions")

family = atk.synthesize_attacks(system)
print(f"family dimension: {family.dimension} "
      f"({family.non_vacuum_dimension} excluding photon-blocking directions)")
print(f"only the do-nothing attack? {family.only_trivial}")

# The family contains the early/late timing attack: Eve reads the bit
# from arrival timing the receiver never checks.
timing = atk.faked_states_attack(receiver, system=system)
print(f"\ncontains the early/late timing attack: {family.contains(timing)}")

report = atk.verify_oblivious(timing, system=system)
print(f"verify: oblivious={report.oblivious}, "
      f"max forbidden amplitude={report.max_error_amplitude:.2e}")

# How much does Eve learn?  Condition her probe on each sifted bit and
# ask for the optimal distinguishing probability.
conditional = atk.eve_conditional_states(timing, system=system)
for basis in (rc.COMPUTATIONAL, rc.HADAMARD):
    try:
        guess = atk.eve_guess_probability(conditional, basis)
        print(f"  optimal guess, {basis} basis: {guess:.3f}")
    except atk.AttackError as exc:
        print(f"  optimal guess, {basis} basis: n/a ({exc})")

# A plain copy attack, for contrast, is *not* oblivious on an ideal
# receiver: the verifier pinpoints the leaking outcome rows.
ideal = rc.make_receiver("ideal-bb84")
ideal_system = atk.build_constraint_system(ideal)
copy = atk.cnot_attack(ideal, ideal_system)
failing = atk.verify_oblivious(copy, ideal_system)
print(f"\ncopy attack on the ideal receiver: oblivious={failing.oblivious}")
for row, residual in failing.failing_rows():
    print(f"  leak: alice={row.alice_label} setting={row.setting} "
          f"outcome={row.outcome_id} residual={residual:.4f}")

# The defended receiver closes the timing hole: synthesis finds nothing
# beyond the do-nothing family, and every member leaves Eve at chance.
defended = rc.make_receiver("interferometric-defended-10mode")
defended_system = atk.build_constraint_system(defended)
defended_family = atk.synthesize_attacks(defended_system)
print(f"\ndefended receiver: only_trivial={defended_family.only_trivial}")
member = defended_family.sample(np.random.default_rng(7))
cond = atk.eve_conditional_states(member, system=defended_system)
print("sampled member, Eve guess probabilities:",
      [round(atk.eve_guess_probability(cond, b), 6)
       for b in (rc.COMPUTATIONAL, rc.HADAMARD)])

# Attacks serialize to JSON for the CLI and for archival.
blob = timing.to_json_dict()
again = atk.AttackIsometry.from_json_dict(blob)
print(f"\nserialization round trip intact: "
      f"{np.allclose(again.coefficients, timing.coefficients)}")
