"""Packet schedulers.

The scheduler is the data-plane decision the paper deliberately leaves in
the kernel: given the subflows that currently have congestion-window space,
pick the one on which the next chunk of data is transmitted.  The Linux
default — and the one used throughout the paper's experiments — prefers the
established subflow with the lowest smoothed RTT; round-robin and redundant
schedulers are provided for completeness and for the scheduler ablation
benchmark.

Backup semantics (RFC 6824): subflows flagged as backup are only eligible
when no non-backup subflow is usable.

The contract is ``Scheduler.pick(subflows, need)``: one pass answers the
subflow for the next chunk of ``need`` bytes, the window it was found with
and whether it was the *only* eligible one with window for ``need`` bytes —
all ``MptcpConnection._push_data`` needs to send a flight without asking
again.  A subflow counts as having window only when its ``send_space``
holds the whole chunk (``send_space >= need``): a chunk is never cut to
fit a window, which is the sender-side silly-window avoidance of RFC 9293
§3.8.6.2.1 (Linux gets it by counting ``cwnd`` in packets).
``select(subflows, chunk_len)`` is ``pick(subflows, chunk_len)``'s subflow.

A scheduler reads, and never calls for, what it ranks on: a subflow's
``is_usable``, ``backup`` and ``id``, and its socket's ``send_space`` (the
value :meth:`repro.tcp.socket.TcpSocket.available_window` answers, kept
current by the socket) and ``rtt.srtt`` are all plain attributes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mptcp.subflow import Subflow


class Scheduler(ABC):
    """Chooses the subflow that carries the next data chunk."""

    name = "abstract"

    def eligible(self, subflows: Sequence[Subflow], need: int) -> list[Subflow]:
        """Filter subflows the scheduler may use right now for ``need`` bytes.

        Applies establishment, window (``send_space >= need``) and
        backup-priority rules; the concrete scheduler then ranks the
        survivors.
        """
        usable = []
        regular = []
        for flow in subflows:
            if flow.is_usable:
                usable.append(flow)
                if not flow.backup:
                    regular.append(flow)
        candidates = regular if regular else usable
        out = []
        for flow in candidates:
            if flow.socket.send_space >= need:
                out.append(flow)
        return out

    @abstractmethod
    def pick(self, subflows: Sequence[Subflow], need: int) -> Optional[tuple[Subflow, int, bool]]:
        """``(subflow, window, alone)`` for the next ``need``-byte chunk
        (``need`` > 0), or ``None`` to wait: the chosen subflow, its
        ``socket.send_space`` (at least ``need``), and whether no other
        eligible subflow had ``need`` bytes of window — so that asking again
        for as many bytes or more after sending on it could only name the
        same subflow or nobody."""

    def select(self, subflows: Sequence[Subflow], chunk_len: int) -> Optional[Subflow]:
        """Return the subflow whose window holds the next ``chunk_len``
        bytes, or ``None`` to wait."""
        picked = self.pick(subflows, chunk_len)
        return picked[0] if picked is not None else None


class LowestRttScheduler(Scheduler):
    """The Linux default: lowest smoothed RTT wins.

    Subflows without an RTT estimate yet (just established) are preferred
    over measured ones, matching the kernel's behaviour of probing new
    subflows immediately.
    """

    name = "lowest_rtt"

    def pick(self, subflows: Sequence[Subflow], need: int) -> Optional[tuple[Subflow, int, bool]]:
        # ``eligible()`` and the argmin over (has_estimate, srtt, id) folded
        # into one pass without intermediate lists: this runs for every
        # flight the connection pushes.  Backup subflows are ranked (and
        # counted as open) only until the first usable regular one shows up,
        # which outranks them all whether or not it has window; the first of
        # equal keys wins, exactly like min() with a key function.
        best: Optional[Subflow] = None
        best_srtt: Optional[float] = None
        best_window = 0
        open_flows = 0
        regular_usable = False
        for flow in subflows:
            if not flow.is_usable:
                continue
            if flow.backup:
                if regular_usable:
                    continue
            elif not regular_usable:
                regular_usable = True
                best = None
                open_flows = 0
            socket = flow.socket
            window = socket.send_space
            if window < need:
                continue
            open_flows += 1
            srtt = socket.rtt.srtt
            if best is not None:
                if best_srtt is None:
                    if srtt is not None or flow.id >= best.id:
                        continue
                elif srtt is not None and (
                    srtt > best_srtt or (srtt == best_srtt and flow.id >= best.id)
                ):
                    continue
            best = flow
            best_srtt = srtt
            best_window = window
        return (best, best_window, open_flows == 1) if open_flows else None


class RoundRobinScheduler(Scheduler):
    """Cycle over the eligible subflows regardless of their RTT."""

    name = "round_robin"

    def __init__(self) -> None:
        self._last_id: Optional[int] = None

    def pick(self, subflows: Sequence[Subflow], need: int) -> Optional[tuple[Subflow, int, bool]]:
        candidates = sorted(self.eligible(subflows, need), key=lambda flow: flow.id)
        if not candidates:
            return None
        cursor_alive = self._last_id is not None and any(
            flow.id == self._last_id and not flow.is_closed for flow in subflows
        )
        if self._last_id is not None and not cursor_alive:
            # The subflow that set the cursor left the connection (the
            # connection compacts closed subflows out of the live list, so
            # "left" usually means absent).  Restart the rotation rather
            # than resuming "after" the stale id, which would let a
            # departed high-id subflow skip the low-id survivors' turns.
            # (Merely window-blocked subflows are alive and keep their
            # position.)
            self._last_id = None
        chosen = candidates[0]  # first pick, or wrap-around after a full cycle
        if self._last_id is not None:
            for flow in candidates:
                if flow.id > self._last_id:
                    chosen = flow
                    break
        self._last_id = chosen.id
        return chosen, chosen.socket.send_space, len(candidates) == 1


class RedundantScheduler(Scheduler):
    """Always pick the lowest-RTT subflow, ignoring backup priority.

    This models "redundant"-style schedulers that trade efficiency for
    latency by never letting a backup path sit idle.  It reuses the
    lowest-RTT ranking but widens the eligible set.
    """

    name = "redundant"

    def eligible(self, subflows: Sequence[Subflow], need: int) -> list[Subflow]:
        usable = [flow for flow in subflows if flow.is_usable]
        return [flow for flow in usable if flow.socket.send_space >= need]

    def pick(self, subflows: Sequence[Subflow], need: int) -> Optional[tuple[Subflow, int, bool]]:
        candidates = self.eligible(subflows, need)
        if not candidates:
            return None
        def key(flow: Subflow) -> tuple:
            srtt = flow.socket.rtt.srtt
            return (srtt is not None, srtt if srtt is not None else 0.0, flow.id)
        chosen = min(candidates, key=key)
        return chosen, chosen.socket.send_space, len(candidates) == 1


SCHEDULER_REGISTRY: dict[str, type[Scheduler]] = {
    "lowest_rtt": LowestRttScheduler,
    "round_robin": RoundRobinScheduler,
    "redundant": RedundantScheduler,
}


def available_schedulers() -> list[str]:
    """The registry names accepted by :func:`make_scheduler`, sorted."""
    return sorted(SCHEDULER_REGISTRY)


def make_scheduler(name: str) -> Scheduler:
    """Factory used by the stack configuration."""
    try:
        return SCHEDULER_REGISTRY[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r} (expected one of {available_schedulers()})"
        ) from None
