"""Lint fixture: an operator subclass that mutates the K_i counter (R001)."""


class CheatingScan(Operator):  # noqa: F821 - fixture, never imported
    op_name = "cheating_scan"

    def children(self):
        return ()

    @property
    def output_schema(self):
        return None

    def _next_batch(self, max_rows):
        self.tuples_emitted += 1  # R001: only Operator.next_batch() may do this
        return []

    def reset_counter(self):
        self.tuples_emitted = 0  # R001 again

    def next_batch(self, max_rows):
        # R001: a *subclass* next_batch may not write the counter either —
        # only Operator.next_batch itself does the += len(batch).
        self.tuples_emitted += max_rows
        return []
