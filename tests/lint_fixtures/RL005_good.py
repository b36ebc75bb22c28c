"""Good twin for RL005: event-guarded stores confined to allowlisted state."""


class OutOfOrderCore:
    def __init__(self, engine: str) -> None:
        self.engine = engine
        self.retired_total = 0
        self._due = {}
        self._issue_quiescent = False
        self.stepped_cycles = 0

    def advance(self) -> None:
        if self.engine == "event":
            self._issue_quiescent = True
            self.stepped_cycles += 1
            self._due.setdefault(1, []).append(0)
        else:
            self.retired_total += 1

    def drain(self) -> None:
        if self.engine != "event":
            self.retired_total += 1
        else:
            self._due = {}
