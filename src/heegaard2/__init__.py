"""Combinatorial machinery for genus-two Heegaard splittings of
connected sums of lens spaces and S^2 x S^1: curve words in the rank-2
free group and primitivity criteria, disk-surgery word sequences, Farey
balls and their odd subtrees, sphere-complex tree and cone models, the
surface-count classification, and Goeritz group presentations with
solvable word problems.

Submodules load on first access (``heegaard2.goeritz``), so a program
pays only for the ones it uses.
"""

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("classify", "cli", "complexes", "farey", "fgroup", "goeritz", "surgery"):
        __import__(f"{__name__}.{name}")  # binds the submodule in globals()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
