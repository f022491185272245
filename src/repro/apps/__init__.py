"""Applications driving the MPTCP stack in the experiments.

These are the traffic sources and sinks the paper's evaluation uses: bulk
file transfers, a fixed-rate block streaming application (§4.3), an
HTTP/1.0-style request/response server and client (§4.5), and a long-lived
mostly-idle application (§4.1).
"""

from repro.apps.base import Application
from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.apps.http import HttpClientDriver, HttpRequestRecord, HttpServerApp
from repro.apps.longlived import LongLivedApp, LongLivedPeer
from repro.apps.streaming import BlockRecord, StreamingSinkApp, StreamingSourceApp

__all__ = [
    "Application",
    "BulkSenderApp",
    "BulkReceiverApp",
    "StreamingSourceApp",
    "StreamingSinkApp",
    "BlockRecord",
    "HttpServerApp",
    "HttpClientDriver",
    "HttpRequestRecord",
    "LongLivedApp",
    "LongLivedPeer",
]
