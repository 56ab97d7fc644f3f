"""RPR915 fixture: a subclass that grows state under an inherited contract."""


class Base:
    STATE_FIELDS = ("ticks",)

    def __init__(self):
        self.ticks = 0


class Gated(Base):
    """RPR915: declares nothing itself, so ``snapshot.capture`` holds it
    to ``Base``'s contract and refuses ``open``."""

    def __init__(self):
        super().__init__()
        self.ticks = 1  # inherited and declared there: fine
        self.open = True
