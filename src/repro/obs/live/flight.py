"""Flight recorder: a bounded ring of the recent trace past.

A long live run cannot afford full tracing, but the moment something
goes wrong — a trial is quarantined, the watchdog trips, the process
crashes — the *recent* past is exactly what a post-mortem needs.  The
flight recorder keeps that past at O(1) memory: one bounded ring of
trace-event tuples per subsystem track, fed from the tracer's single
record choke point (:meth:`repro.obs.trace.Tracer._record`), so it
sees every span and instant the hooks emit **even when full tracing is
off** (the recorder runs the tracer in non-retaining mode then — see
``retain`` in :class:`~repro.obs.trace.Tracer`).

On a trigger, :meth:`FlightRecorder.dump` snapshots the rings into a
plain JSON document (Chrome trace-event dicts grouped by track, newest
last) and :meth:`write` lands it as ``<out>.flight.json``.  Dumps are
cheap and idempotent; the rings keep recording through them.

The ring append is a single ``deque.append`` under the GIL, so feeding
it from the simulation thread while the watchdog dumps from the bus
drainer thread needs no locking — ``dump`` copies each ring with
``list(ring)``, which is likewise atomic enough for a diagnostic
artifact.

A pool worker's trial records into a fresh ring whose tail rides home
in the trial's merge chunk; the parent folds the tails in trial order,
so the ``jobs=N`` dump equals the ``jobs=1`` one.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.obs.trace import TRACKS

PathLike = Union[str, Path]

#: Default events retained per subsystem track.
DEFAULT_RING_CAPACITY = 256

_TRACK_NAMES = {tid: name for name, tid in TRACKS.items()}
_NS_PER_US = 1000.0


def _event_to_dict(seq: int, event: Tuple) -> Dict[str, object]:
    """One internal event tuple as a Chrome trace-event dict + seq."""
    ph, name, cat, ts_ns, dur_ns, pid, tid, args = event
    out: Dict[str, object] = {
        "seq": seq, "ph": ph, "name": name, "cat": cat,
        "ts": ts_ns / _NS_PER_US, "pid": pid, "tid": tid,
    }
    if ph == "X":
        out["dur"] = (dur_ns or 0) / _NS_PER_US
    elif ph == "i":
        out["s"] = "t"
    if args:
        out["args"] = dict(args)
    return out


class FlightRecorder:
    """Per-track bounded rings of the most recent trace events."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: Dict[int, Deque[Tuple[int, Tuple]]] = {}
        self.recorded = 0  # also the last event's sequence number
        self.dumps = 0
        self._pid = os.getpid()

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def record(self, event: Tuple) -> None:
        """Append one tracer event tuple to its track's ring."""
        self.recorded += 1
        self._ring(event[6]).append((self.recorded, event))

    def _ring(self, tid: int) -> Deque[Tuple[int, Tuple]]:
        ring = self._rings.get(tid)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[tid] = ring
        return ring

    def instant(self, name: str, track: str, ts_ns: int,
                args: Optional[Dict[str, object]] = None,
                category: str = "live") -> None:
        """Record an ad-hoc instant directly (watchdog ``health:*``)."""
        self.record(("i", name, category, ts_ns, None, 0,
                     TRACKS.get(track, 0), args))

    # ------------------------------------------------------------------
    # Trial chunks
    # ------------------------------------------------------------------
    def for_trial(self) -> "FlightRecorder":
        """The ring a trial records into: this one in the creating
        process, a fresh one (whose :meth:`tail` ships home) in a
        forked pool worker, whose copy the parent never sees."""
        if os.getpid() == self._pid:
            return self
        return FlightRecorder(self.capacity)

    def tail(self) -> Dict[str, object]:
        """The retained events and the recorded count, as plain data."""
        events = [entry for ring in self._rings.values() for entry in ring]
        return {"recorded": self.recorded, "events": events}

    def absorb(self, tail: Dict[str, object]) -> None:
        """Fold a trial's :meth:`tail` in exactly as if its events had
        been recorded here (sequence numbers offset by our count)."""
        offset = self.recorded
        for seq, event in tail["events"]:
            self._ring(event[6]).append((offset + seq, tuple(event)))
        self.recorded += tail["recorded"]

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(self, reason: str,
             extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The ring contents as a plain JSON-able post-mortem document."""
        self.dumps += 1
        tracks: Dict[str, List[Dict[str, object]]] = {}
        for tid in sorted(self._rings):
            events = [_event_to_dict(seq, event)
                      for seq, event in list(self._rings[tid])]
            tracks[_TRACK_NAMES.get(tid, f"track {tid}")] = events
        document: Dict[str, object] = {
            "format": "repro-flight-v1",
            "reason": reason,
            "wall_time_s": time.time(),
            "ring_capacity": self.capacity,
            "events_recorded": self.recorded,
            "events_retained": len(self),
            "tracks": tracks,
        }
        if extra:
            document.update(extra)
        return document

    def write(self, path: PathLike, reason: str,
              extra: Optional[Dict[str, object]] = None) -> Path:
        """Dump and land the document at ``path`` (``<out>.flight.json``)."""
        path = Path(path)
        document = self.dump(reason, extra)
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n")
        return path
