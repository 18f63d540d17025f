"""The result record of a Zariski decomposition.

Kept apart from `zariski` so that only the calls that build a result,
`zariski_decompose` and `zariski_oracle`, load it, and with it
`dataclasses` (and `inspect`); `volume` and every pipeline that only
reads volumes never do.  `zariski` re-exports the class.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .lattice import QDivisor, divisor_to_json, rational_str


@dataclass(frozen=True)
class ZariskiResult:
    """Positive part P, negative part N, support of N, bigness and volume."""

    positive: QDivisor
    negative: QDivisor
    support: frozenset[str]
    big: bool
    volume: Q

    def to_json(self) -> dict:
        return {
            "positive": divisor_to_json(self.positive),
            "negative": divisor_to_json(self.negative),
            "support": sorted(self.support),
            "big": self.big,
            "volume": rational_str(self.volume),
        }
