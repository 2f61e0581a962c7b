"""Open-loop load generation for the ``serve-zipf`` workload.

Requests arrive on a fixed schedule that does not wait for replies
(independent users), and each connection carries one request at a time
(HTTP/1.1 keep-alive without pipelining).  A request whose scheduled
time passes while every connection is busy is sent as soon as one frees
up, and its latency still counts from the scheduled time, so a server
stall charges its full cost to every request queued behind it.

The generator's own lateness (send time minus the later of the
scheduled time and the moment a connection became free) is recorded
separately: when it is large, the generator, not the server, distorted
the run.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

__all__ = ["Scheduled", "Outcome", "poisson_schedule", "run_open_loop"]


@dataclass(frozen=True)
class Scheduled:
    """One request of the schedule: when, what, and the expected body."""

    rid: int
    at: float              # seconds after the segment starts
    target: str
    digest: str            # sha1 hex of the expected response body
    bases: int             # bases carried by a correct response


@dataclass
class Outcome:
    """What happened to one scheduled request (times in seconds)."""

    rid: int
    scheduled: float
    sent: float
    done: float
    ok: bool
    status: int
    own_late: float        # generator lateness, not caused by the server
    bases: int

    @property
    def latency(self) -> float:
        """Scheduled send to last response byte."""
        return self.done - self.scheduled

    @property
    def service(self) -> float:
        """Actual send to last response byte."""
        return self.done - self.sent


def poisson_schedule(rng: np.random.Generator, rate: float,
                     seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process at ``rate`` over ``seconds``.

    The request count is fixed at ``round(rate * seconds)`` and the
    arrivals are uniform order statistics: a Poisson process conditioned
    on its count.  Fixing the count keeps the tail percentile the
    benchmark can report the same from run to run.
    """
    n = max(1, round(rate * seconds))
    return sorted(float(x) for x in rng.uniform(0.0, seconds, size=n))


def run_open_loop(schedule: list[Scheduled], connect, *,
                  connections: int = 2, span=None) -> list[Outcome]:
    """Replay ``schedule`` over ``connections`` persistent connections.

    ``connect()`` returns an object with ``get(target) -> (status,
    body)`` and ``close()``; one is opened per connection thread.  Every
    exception a request raises is recorded as a failed outcome, so a
    refused or broken connection costs one request, not the run; a
    request no connection got to is failed too.  ``span(name, rid)``,
    when given, wraps each request (the traced run's client-side span).
    Returns the outcomes in schedule order.
    """
    span = span or (lambda name, rid: nullcontext())
    lock = threading.Lock()
    cursor = [0]
    outcomes: list[Outcome | None] = [None] * len(schedule)
    start = time.perf_counter()

    def worker() -> None:
        client = connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(schedule):
                        return
                    cursor[0] += 1
                item = schedule[index]
                free = time.perf_counter()
                due = start + item.at
                if due > free:
                    time.sleep(due - free)
                sent = time.perf_counter()
                status, ok = 0, False
                try:
                    with span("loadgen.request", item.rid):
                        status, body = client.get(item.target)
                    done = time.perf_counter()
                    ok = (status == 200 and
                          hashlib.sha1(body).hexdigest() == item.digest)
                except Exception:   # a failed request is data, not a crash
                    done = time.perf_counter()
                outcomes[index] = Outcome(
                    rid=item.rid, scheduled=due, sent=sent, done=done,
                    ok=ok, status=status,
                    own_late=max(0.0, sent - max(due, free)),
                    bases=item.bases if ok else 0)
        finally:
            client.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return [o if o is not None else
            Outcome(rid=item.rid, scheduled=start + item.at, sent=end,
                    done=end, ok=False, status=0, own_late=0.0, bases=0)
            for o, item in zip(outcomes, schedule)]
