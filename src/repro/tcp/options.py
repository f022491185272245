"""Plain TCP options used by the simulation.

Only the options the dynamics actually depend on are modelled.  Selective
acknowledgements matter a lot: without SACK, the burst losses that slow
start causes on small-buffer links (exactly the regime of the paper's
Mininet experiments) would take one RTO per lost segment to repair, which
no Linux kernel of the MPTCP era would do.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SackOption:
    """Selective acknowledgement blocks (RFC 2018).

    ``blocks`` holds up to four ``(start, end)`` half-open sequence ranges
    that the receiver holds out of order; ``highest`` is the highest
    sequence number any of them covers (0 for an empty option).
    """

    blocks: tuple[tuple[int, int], ...]
    highest: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.blocks) > 4:
            raise ValueError("a SACK option carries at most 4 blocks")
        highest = 0
        for start, end in self.blocks:
            if end <= start:
                raise ValueError(f"invalid SACK block ({start}, {end})")
            if end > highest:
                highest = end
        object.__setattr__(self, "highest", highest)

    @property
    def wire_length(self) -> int:
        """2 bytes of header plus 8 bytes per block."""
        return 2 + 8 * len(self.blocks)

    def covers(self, start: int, end: int) -> bool:
        """True when the byte range [start, end) falls inside one block."""
        return any(block_start <= start and end <= block_end for block_start, block_end in self.blocks)
