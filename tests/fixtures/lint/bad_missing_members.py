"""Lint fixture: a concrete Operator subclass missing declarations (R004)."""


class ForgetfulScan(Operator):  # noqa: F821 - fixture, never imported
    """Declares none of op_name / children / output_schema."""

    def _next_batch(self, max_rows):
        return []
