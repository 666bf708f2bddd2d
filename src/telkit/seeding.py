"""Deterministic 64-bit seed derivation.

Every component that needs its own random stream (one per base learner,
per bootstrap resample, per synthetic class) derives a child seed from
the master seed and its integer coordinates.  Results are therefore
independent of training/execution order.  The master seed, any int, is
read by ``canonical.check_number``.
"""

from .canonical import check_number

_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(z: int) -> int:
    """One output of the splitmix64 generator for state ``z``."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix_seed(seed: int, *parts: int) -> int:
    """Mix ``seed`` with integer coordinates into a new 64-bit seed.

    The mixing is a splitmix64 chain: each part is absorbed and the
    state is scrambled, so (seed, 1, 0) and (seed, 0, 1) land far apart.
    """
    state = check_number(seed, "seed", integral=True) & _MASK
    state = _splitmix64(state)
    for part in parts:
        state = _splitmix64(state ^ (part & _MASK))
    return state
