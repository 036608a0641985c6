"""Lint fixture: a well-behaved operator subclass (no violations)."""

from itertools import islice


class PoliteBuffer(Operator):  # noqa: F821 - fixture, never imported
    """Blocking: reads its one input through the instrumented pass, then
    emits — counters, hooks and ticks are the base class's business."""

    op_name = "polite_buffer"
    blocking_child_indexes = (0,)

    def __init__(self, child):
        super().__init__(1)
        self.child = child
        self._iter = None

    def children(self):
        return (self.child,)

    @property
    def output_schema(self):
        return self.child.output_schema

    def _next_batch(self, max_rows):
        if self._iter is None:
            rows = []
            for _keys, batch in self._drain(0, max_rows):
                rows.extend(batch)
            self._iter = iter(rows)
        return list(islice(self._iter, max_rows))
