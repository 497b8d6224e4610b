"""A small cycle-keyed event queue for deferred pipeline actions
(functional-unit completions, cache-stage callbacks, fill completions).

Events referencing squashed instructions are skipped at fire time - the
instruction object's ``squashed`` flag is the cancellation mechanism,
mirroring how real pipelines let in-flight operations drain.

Due cycles are kept in a min-heap, so :meth:`EventQueue.next_cycle` is
O(1): the processor's idle-cycle skip asks it how far it may jump.
"""
from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

Action = Callable[[], None]


class EventQueue:
    """Cycle -> list of thunks, with a heap of the distinct due cycles.

    Actions due in the same cycle run in the order they were scheduled.
    """

    def __init__(self) -> None:
        self._events: Dict[int, List[Action]] = {}
        self._cycles: List[int] = []  # heap of the keys of _events
        self._pending = 0
        #: Actions run so far (monotonic; :meth:`clear` keeps it).
        self.fired = 0

    def schedule(self, cycle: int, action: Action) -> None:
        actions = self._events.get(cycle)
        if actions is None:
            self._events[cycle] = [action]
            heapq.heappush(self._cycles, cycle)
        else:
            actions.append(action)
        self._pending += 1

    def fire(self, cycle: int) -> int:
        """Run all events due at or before ``cycle``, oldest cycle first;
        returns how many ran."""
        ran = 0
        cycles = self._cycles
        while cycles and cycles[0] <= cycle:
            actions = self._events.pop(heapq.heappop(cycles))
            self._pending -= len(actions)
            self.fired += len(actions)
            ran += len(actions)
            for action in actions:
                action()
        return ran

    def next_cycle(self) -> Optional[int]:
        """The earliest cycle with an event due (None when empty)."""
        return self._cycles[0] if self._cycles else None

    @property
    def pending(self) -> int:
        return self._pending

    def clear(self) -> None:
        self._events.clear()
        self._cycles.clear()
        self._pending = 0
