"""Lint fixture: a well-behaved operator subclass (no violations)."""


class PoliteScan(Operator):  # noqa: F821 - fixture, never imported
    op_name = "polite_scan"

    def children(self):
        return ()

    @property
    def output_schema(self):
        return None

    def _next_batch(self, max_rows):
        try:
            return [next(self._iter)]
        except StopIteration:
            return []
