"""Seeded-bad fixture for RL005: event-guarded stores to shared state, marked."""


class OutOfOrderCore:
    def __init__(self, engine: str) -> None:
        self.engine = engine
        self.retired_total = 0
        self._due = {}

    def advance(self) -> None:
        if self.engine == "event":
            self.retired_total += 1  # expect[RL005]
            self._wakeup_cache = {}  # expect[RL005]
            self._due.setdefault(1, []).append(0)
        else:
            self.retired_total += 1

    def drain(self) -> None:
        if self.engine != "event":
            self.retired_total += 1
        else:
            self.cycle = 0  # expect[RL005]
