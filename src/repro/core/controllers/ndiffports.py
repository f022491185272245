"""§4.5 — The userspace twin of the in-kernel ndiffports strategy.

This controller exists for the overhead measurement of Figure 3: it does
exactly what the in-kernel ``ndiffports`` path manager does — create
``n - 1`` additional subflows over the same address pair as soon as the
connection is established — but it does it from userspace, so every
subflow creation pays two Netlink crossings plus the controller's own
processing time.  Comparing the delay between the MP_CAPABLE SYN and the
MP_JOIN SYN for the two variants isolates precisely that overhead.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controller import SubflowController
from repro.core.events import ConnEstablishedEvent
from repro.core.library import PathManagerLibrary


class UserspaceNdiffportsController(SubflowController):
    """Open ``n`` subflows over the initial address pair, from userspace."""

    name = "userspace-ndiffports"

    def __init__(
        self,
        library: PathManagerLibrary,
        subflow_count: int = 2,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(library, name=name)
        if subflow_count < 1:
            raise ValueError(f"subflow_count must be at least 1, got {subflow_count!r}")
        #: Target number of subflows per connection (including the initial one).
        self.subflow_count = subflow_count
        self.subflows_requested = 0

    def on_conn_established(self, event: ConnEstablishedEvent) -> None:
        view = self.state.connection(event.token)
        if not view.is_client or view.four_tuple is None:
            return
        for _ in range(self.subflow_count - 1):
            self.subflows_requested += 1
            self.library.create_subflow(
                event.token,
                view.four_tuple.src,
                remote_address=view.four_tuple.dst,
                remote_port=view.four_tuple.dport,
            )
