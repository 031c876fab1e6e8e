"""The round-robin serving loop: the reference the one tick is proven against.

:class:`RoundRobinSimulator` is :class:`~repro.sim.serve.ServingSimulator`
with its one scheduler seam, ``_schedule``, replaced by the plain loop:
each tick, every live client steps its next query whole, in client
order.  It builds no plan tape, fills nothing ahead and shares no probe
pass -- none of ``step_tick``, ``fill_ahead``, ``tape_entry``,
``plan_tape`` or the tick's ``resolve_ahead`` runs under it
(``tests/test_serving_lockstep.py`` spies on all five) -- so a report it
equals bit for bit is the tick's proof, not the tick compared with
itself.  Cache, disk, walk results and the report are the simulator's.
"""

from __future__ import annotations

from repro.sim.serve import ServingSimulator


class RoundRobinSimulator(ServingSimulator):
    """The serving simulator over the reference loop: one client's full query at a time."""

    def _schedule(self, clients, sessions, prefetchers) -> int:
        tick = 0
        while True:
            advanced = False
            waiting = False
            for client, session in zip(clients, sessions):
                if session.done:
                    continue
                if client.start_tick > tick:
                    waiting = True
                    continue
                session.step_query()
                advanced = True
            if not advanced and not waiting:
                break
            tick += 1
        return tick
