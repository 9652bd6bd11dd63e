"""Seeded 64-bit generator used for witness sampling.

This is the splitmix64 mixer: the state advances by the 64-bit golden
ratio constant and the output is the finalized mix of the new state.
It is implemented here (rather than wrapping a library generator) so the
exact stream is reproducible from the seed in any language:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Doubles are drawn as the top 53 bits of an output word scaled by 2^-53.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_uint64() >> 11) * 2.0 ** -53
