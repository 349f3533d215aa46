"""fock-roundtrip: seeded time-bin pulses through the interferometer and back.

Almost all of the work is in ``fockspace``, and it grows steeply with the
photon number.  A pulse holds n photons in one coherent two-bin wavepacket,
so its shape (which occupations it has) is fixed by n and its cost does not
depend on the seed; the seed draws the amplitudes, the start bin and the
phase.
"""

import math

import numpy as np

import qkdlab.fockspace as fs

PHOTONS = (1, 2, 3, 4)
TINY_PHOTONS = (1, 2)


def pulse(reg, n, rng):
    """n photons in bins (start, start + 1); the registry needs start <= 1
    so that the reverse interferometer stays inside it."""
    start = int(rng.integers(0, 2))
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amplitudes = {
        fs.occ((fs.t_in(start), n - k), (fs.t_in(start + 1), k)):
            complex(math.sqrt(math.comb(n, k)) * c[0] ** (n - k) * c[1] ** k)
        for k in range(n + 1)}
    return fs.PhotonicState(reg, amplitudes).normalized()


class Workload:
    def __init__(self, seed, expect, tiny, workdir, root):
        self.rng = np.random.default_rng(seed)
        self.registry = fs.interferometer_registry(-1, 3, 6)
        self.photons = TINY_PHOTONS if tiny else PHOTONS
        self.tol = expect["roundtrip_tol"]
        warm = pulse(self.registry, 1, np.random.default_rng(seed))
        fs.mz_reverse(fs.mz_transform(warm, 0.0), 0.0)

    def run_pass(self, rec, tracer, pass_index):
        for n in self.photons:
            state = pulse(self.registry, n, self.rng)
            phi = float(self.rng.uniform(0.0, 2 * math.pi))

            def roundtrip():
                with tracer.span("fockspace.mz_transform"):
                    out = fs.mz_transform(state, phi)
                with tracer.span("fockspace.mz_reverse"):
                    back = fs.mz_reverse(out, phi)
                tracer.count("fockspace.components_out", len(out.amplitudes))
                return back

            def check(back):
                error = (back - state).norm()
                if not error <= self.tol:
                    return f"n={n} round trip is off by {error:.3e}"
                return None

            rec.attempt(f"n{n}", roundtrip, check)

    def named(self, rec):
        return {f"fock_roundtrip_n{n}_ms": (rec.median(f"n{n}") * 1e3, "ms")
                for n in self.photons if n >= 2}

    def layers(self, tracer, passes):
        calls = tracer.calls("fockspace.mz_transform")
        return {
            "fockspace.mz_transform.busy_s":
                tracer.busy("fockspace.mz_transform") / passes,
            "fockspace.mz_transform.calls": calls / passes,
            "fockspace.mz_reverse.busy_s":
                tracer.busy("fockspace.mz_reverse") / passes,
            "fockspace.mz_reverse.calls":
                tracer.calls("fockspace.mz_reverse") / passes,
            "fockspace.components_out":
                tracer.counts["fockspace.components_out"] / max(calls, 1),
        }

    def close(self):
        pass
