"""Fixture: estimator hooks that loop over their batch in Python.

``tests/test_plan_validate.py::TestHooksAreColumnKernels`` must flag all
four offenders — a registered bound method, a helper it hands its ``rows``
to, a closure a hook factory returns and a chain output listener — and
none of the clean ones.
"""


class RowLoopEstimator:
    def __init__(self, join, chain):
        self.t = 0
        self.seen = {}
        join.input_hooks[0].append(self._make_build_hook(0))
        join.input_hooks[1].append(self._on_probe)
        join.input_hooks[1].append(self._on_probe_clean)
        chain.add_output_listener("c.x", self._on_output)
        chain.add_output_listener("c.x", self._on_output_clean)

    def _make_build_hook(self, m):
        def build_hook(keys, rows):
            for key, row in zip(keys, rows):  # offender: per-row loop in a closure
                self.seen[key] = row[m]

        return build_hook

    def _on_probe(self, keys, rows):
        for key in keys:  # offender: per-row loop in the hook itself
            self.t += bool(key)
        self._apply(rows[:10])

    def _apply(self, rows):
        self.t += sum(1 for row in rows if row)  # offender: reached from the hook

    def _on_output(self, values, weights):
        for value, weight in zip(values, weights):  # offender: a per-row listener
            self.seen[value] = self.seen.get(value, 0) + weight

    def _on_output_clean(self, values, weights):
        self.t += sum(weights)

    def _on_probe_clean(self, keys, rows):
        self.t += len(rows) + sum(map(self.seen.get, keys, [0] * len(keys)))
        for level in range(2):  # a loop over levels, not over the batch
            self.t += level
