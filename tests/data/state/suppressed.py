"""Every RPR91x seed again, each silenced with ``# repro: noqa[...]``."""


class Simulator:
    """Slotted, contract-honest root: reach for the RPR91x seeds below."""

    __slots__ = ("tape",)

    def __init__(self):
        self.tape = Tape()


class Tape:  # repro: noqa[RPR912] scratch object, never bulk-allocated
    """One suppressed seed per rule."""

    STATE_FIELDS = ("head", "position")  # repro: noqa[RPR915] rest is derived

    def __init__(self, cells: list = None):
        self.head = open("tape.bin", "rb")  # repro: noqa[RPR914] closed pre-fork
        self.position = 0
        self.cells = cells
