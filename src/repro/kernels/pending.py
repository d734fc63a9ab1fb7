"""The final state of an engaged kernel replay, decoded on first read.

An engaged replay writes its counters into the machine at once, since
every caller reads them, and keeps its per-block state (cache lines,
and directory entries on the directory engine) packed.  Until that
state is read, the machine's ``caches`` slot and the directory
protocol's ``_entries`` slot hold a :class:`StandIn`.  The first read
through either puts the real list and dict back in their slots,
decodes the whole state into them and forwards the read.  A replay
read only through its counters never pays for the decode.

The stand-ins sit in the slots rather than behind a property or
``__getattr__`` on the machine, protocol or cache classes, so the
generic per-access loop, which never meets one, pays nothing.  A
reference to the cache list, a cache or the entry dict taken *before*
the replay is the real, still empty object: read through the machine.
"""

from __future__ import annotations

import weakref
from typing import Callable


class StandIn:
    """Holds a list or dict slot whose content is still packed; any use
    runs the pending decode once, then acts on the real object."""

    __slots__ = ("_real", "_decode")

    def __init__(self, real, decode: Callable[[], None]):
        self._real = real
        self._decode = decode

    def _target(self):
        self._decode()
        return self._real

    def __getattr__(self, name):
        return getattr(self._target(), name)

    def __reduce__(self):
        # Copies and pickles carry the decoded object.
        return _same, (self._target(),)


def _same(obj):
    return obj


def _forward(name: str):
    def method(self, *args):
        return getattr(self._target(), name)(*args)

    method.__name__ = name
    return method


# Special methods are looked up on the type, not through __getattr__.
for _name in ("__getitem__", "__setitem__", "__len__", "__iter__",
              "__contains__", "__eq__", "__repr__"):
    setattr(StandIn, _name, _forward(_name))


def defer(machine, fill: Callable[[list, dict | None], None],
          protocol=None) -> None:
    """Leave ``machine``'s per-block state pending until first read.

    ``fill(caches, entries)`` decodes it into the machine's cache list
    and, given the directory ``protocol``, its entry dict (``None`` on
    a bus machine), once.  Nothing pending holds the machine strongly:
    that reference cycle would keep an unread machine alive until the
    cycle collector ran.
    """
    caches = machine.caches
    entries = None if protocol is None else protocol._entries
    owner = weakref.ref(machine)

    def decode() -> None:
        nonlocal fill
        if fill is not None:
            run, fill = fill, None
            live = owner()
            if live is not None:
                live.caches = caches
                if entries is not None:
                    live.protocol._entries = entries
            run(caches, entries)

    machine.caches = StandIn(caches, decode)
    if protocol is not None:
        protocol._entries = StandIn(entries, decode)
