"""Expected verdicts: what counts as a correct answer on each workload.

Checks compare verdicts (dimensions, family membership, oblivious flags,
QBER, discovered properties, schema validity), never artifact bytes, so
fields added to artifacts later do not break them.
"""

# Reversed-space dimensions of acceptance criterion 02.
REVERSED_DIMS = {
    ("interferometric-6mode", None): 5,
    ("interferometric-defended-10mode", None): 7,
    ("interferometric-2mode", None): 5,
    ("interferometric-2mode", "single-window"): 3,
}

# Receivers whose attack family holds only the pass-through strategy.
ONLY_TRIVIAL = {"interferometric-defended-10mode": True,
                "interferometric-6mode": False}

# Blinding properties every default fuzz campaign must rediscover.
FUZZ_PROPERTIES = frozenset({"Blinding", "WeakUnderBlinding",
                             "StrongUnderBlinding"})

# Scenario exit codes other than 0.  verify-copy-vs-ideal audits a
# detectable attack, so exit 4 with "oblivious": false is its success.
CLI_EXIT = {"verify-copy-vs-ideal.json": 4}
CLI_OBLIVIOUS = {"verify-copy-vs-ideal.json": False,
                 "verify-faked-states-6mode.json": True}

# Round trips through the interferometer must return the input this closely.
ROUNDTRIP_TOL = 1e-9

# Inputs that fail today because of a defect in qkdlab.  They stay in the
# workloads and count as failed operations; they do not make a run
# incorrect.  Remove an entry when its fix lands.
KNOWN_DEFECTS = {
    ("interferometric-2mode", "single-window"):
        "synthesize_attacks raises KeyError(('computational', 0)) "
        "in _parameter_extractors",
}


def expectations(wrong_verdict=False):
    """The table above; ``wrong_verdict`` plants one false expectation per
    workload that has verdicts, so a check of the checks can see it fail."""
    table = {
        "reversed_dims": dict(REVERSED_DIMS),
        "only_trivial": dict(ONLY_TRIVIAL),
        "fuzz_properties": FUZZ_PROPERTIES,
        "cli_exit": dict(CLI_EXIT),
        "cli_oblivious": dict(CLI_OBLIVIOUS),
        "roundtrip_tol": ROUNDTRIP_TOL,
        "faked_states_qber": 0.0,
        "known_defects": dict(KNOWN_DEFECTS),
    }
    if wrong_verdict:
        table["reversed_dims"][("interferometric-6mode", None)] = 6
        table["cli_exit"]["verify-copy-vs-ideal.json"] = 0
        table["faked_states_qber"] = 0.5
        table["roundtrip_tol"] = -1.0
    return table
