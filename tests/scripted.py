"""Scripted losses for tests: a link that loses exactly the listed sends.

`script_drops(link, {(src, dst): {i, ...}})` gives the link a loss rate of
1.0 and puts a stand-in stream in each direction's `Link._rng` slot.  The
stand-in returns 0.0 (drawn under any positive loss, so lost) for a listed
send index and 1.0 (never below a loss in [0, 1], so delivered) for every
other, so the real `should_drop`, `draw_losses` and `Network.transmit`
decide and count each loss.  A send index counts every send in that
direction since the link was built, as `Link.tx` does; a direction left out
of the script loses nothing.  A later `set_link` to loss 0 turns the script
off, as it turns off a real stream.
"""


class ScriptedStream:
    """One direction's stand-in for its `random.Random` stream."""

    __slots__ = ("tx", "direction", "drops")

    def __init__(self, tx: dict, direction: tuple, drops):
        self.tx = tx
        self.direction = direction
        self.drops = frozenset(drops)

    def random(self) -> float:
        # `should_drop` counts a send before it draws for it.
        return 0.0 if self.tx[self.direction] - 1 in self.drops else 1.0


def script_drops(link, drops_by_direction: dict):
    """Lose exactly the listed send indices of each direction of `link`."""
    link.loss = 1.0
    for direction in link.tx:
        link._rng[direction] = ScriptedStream(
            link.tx, direction, drops_by_direction.get(direction, ()))
    return link
