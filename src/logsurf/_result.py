"""The result record of a Zariski decomposition.

A leaf module, kept apart from `zariski` so that only the calls that
build a result, `zariski_decompose` and `zariski_oracle`, load it, and
with it `dataclasses` (and `inspect`).  `volume`, the CLI's `zariski`
command and the catalog's examples read the decomposition as a plain
tuple (`zariski._parts`) and never do, so no CLI command does.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import QDivisor


@dataclass(frozen=True)
class ZariskiResult:
    """Positive part P, negative part N, support of N, bigness and volume."""

    positive: QDivisor
    negative: QDivisor
    support: frozenset[str]
    big: bool
    volume: Q

    def to_json(self) -> dict:
        from .formats import decomposition_to_json

        return decomposition_to_json(
            self.positive, self.negative, self.support, self.big, self.volume
        )
