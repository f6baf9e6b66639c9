"""CPU-exclusive thread timing for the modelled-throughput studies.

The scaling study and the executor-pool gate charge every worker thread its
own CPU time (``time.thread_time``) and build the parallel schedule from
those times.  That model is exact only while a thread's CPU time is its own
compute.  When the worker threads run on several CPUs at once, they pass the
interpreter lock back and forth around every numpy call that releases it: on
a 2-CPU host, a 96-request, 4-endpoint stream makes about a thousand
voluntary context switches per endpoint, and the lock hand-offs (futex
calls, cache refills) roughly double each thread's measured CPU time.  On
one CPU the same threads still interleave, since the interpreter switches
them every few milliseconds, but without that ping-pong; this is the
single-CPU setting the modelled convention was defined on.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def single_cpu() -> Iterator[None]:
    """Run the block, and every thread it starts, on one CPU.

    Confines the calling thread to the lowest CPU it may use (threads
    started inside the block inherit that), then restores its CPU set.  A
    no-op where the platform has no ``os.sched_setaffinity``.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
