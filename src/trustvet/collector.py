"""Hold Python's cyclic garbage collector off while a graph is built or judged.

A parse, an import, a merge or a verdict makes thousands of small tracked
containers (edges, sets, frozensets, statement records) that live until the
call returns. The collector counts each allocation and, every few hundred,
walks every tracked container young enough, promoting the survivors, so a
long parse runs a dozen collections that can find nothing: these calls make
no reference cycle, and reference counting frees all they make. nogc turns
the collector off for the length of one call.

The collector is one switch for the whole process. A call made with it on
turns it back on when it returns or raises; a call made with it off (a
nested call, or a caller that turned it off) leaves it off. There is no
lock and no counter, so the switch can never be left off by the calls
themselves: when two threads overlap, the one that found the collector on
turns it on at its exit, and the other runs the rest of its call with the
collector on. While a paused call runs, every other thread of the process
runs with the collector off too.
"""

from __future__ import annotations

import functools
import gc


def nogc(function):
    """function, run with the cyclic garbage collector off and the caller's
    setting restored on return or raise. Reference counting still frees
    what it makes, as long as it makes no reference cycle.

    A plain wrapper, not a contextlib.contextmanager: a generator is a
    tracked allocation made before the collector is off, so it can start
    the very collection the call is meant to skip."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return wrapper
