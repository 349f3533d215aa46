"""
Beam splitters and time-bin interferometers
===========================================

A guided tour of the Fock-space layer: sparse photonic states, the
balanced beam splitter convention, and the unbalanced interferometer
that turns one input time bin into two output bins.
"""

import numpy as np

import qkdlab.fockspace as fs

# A state lives in a registry: the declared mode set plus a photon cap.
# Two abstract modes are enough for the beam splitter.
a, b = fs.Mode(fs.CUSTOM, 0), fs.Mode(fs.CUSTOM, 1)
a_out, b_out = fs.Mode(fs.CUSTOM, 2), fs.Mode(fs.CUSTOM, 3)
reg = fs.registry([a, b, a_out, b_out], 3)

# One photon in the first input arm.  The balanced splitter sends it to
# an equal superposition of the output arms, with the reflected arm
# picking up a 90-degree phase.
photon = fs.PhotonicState.photon(reg, a)
split = fs.apply_beam_splitter(photon, (a, b), (a_out, b_out))
print("single photon after the splitter:")
for occ, amp in sorted(split.components().items(), key=str):
    print(f"  {occ}: {amp:+.4f}")

# Two photons in one arm bunch: the |1,1> output component cancels.
pair = fs.PhotonicState.basis(reg, fs.occ((a, 2)))
print("\ntwo photons after the splitter:")
for occ, amp in sorted(fs.apply_beam_splitter(pair, (a, b), (a_out, b_out)).components().items(), key=str):
    print(f"  {occ}: {amp:+.4f}")

# The interferometer registry spans input time bins, their blocked
# counterparts (the long-arm loss port), and the two detector rails.
reg = fs.interferometer_registry(-1, 3)
cfg = fs.InterferometerConfig(phi=0.0)

# An early photon |t'0> exits across two time bins and both rails.
early = fs.PhotonicState.photon(reg, fs.t_in(0))
print("\nearly time-bin photon through the interferometer (phi = 0):")
for occ, amp in sorted(fs.mz_transform(early, cfg).components().items(), key=str):
    print(f"  {occ}: {amp:+.4f}")

# The superposition (|t'0> + |t'1>)/sqrt(2) interferes: the middle
# straight-rail bin cancels and the middle down-rail bin doubles.
late = fs.PhotonicState.photon(reg, fs.t_in(1))
plus = (early + late).scaled(1 / np.sqrt(2))
print("\n(|t'0> + |t'1>)/sqrt(2) through the interferometer:")
for occ, amp in sorted(fs.mz_transform(plus, cfg).components().items(), key=str):
    print(f"  {occ}: {amp:+.4f}")

# Running a detector click backwards through the optics tells us which
# channel inputs could have produced it -- the computation at the heart
# of the receiver analysis in the rest of the toolkit.
click = fs.PhotonicState.photon(reg, fs.s_out(1))
back = fs.mz_reverse(click, cfg)
print("\nthe straight-rail click at bin 1, propagated backwards:")
for occ, amp in sorted(back.components().items(), key=str):
    print(f"  {occ}: {amp:+.4f}")

# Both directions are unitary on their domain, so norms survive.
print(f"\nnorm in:  {plus.norm():.12f}")
print(f"norm out: {fs.mz_transform(plus, cfg).norm():.12f}")
