"""Fixture-snippet tests for the hygiene rules."""


def test_hyg001_flags_float_equality(lint):
    assert "HYG001" in lint(
        """
        def converged(loss):
            return loss == 0.001
        """
    )


def test_hyg001_flags_negated_float_literal(lint):
    assert "HYG001" in lint(
        """
        def at_floor(power_dbm):
            return power_dbm != -120.0
        """
    )


def test_hyg001_negative_for_ordering_and_int_compare(lint):
    codes = lint(
        """
        def classify(x, n):
            return x <= 0.5 or n == 3
        """
    )
    assert "HYG001" not in codes


def test_hyg001_exempt_in_test_files(lint):
    snippet = """
    def check(value):
        assert value == 0.25
    """
    assert "HYG001" in lint(snippet, filename="golden.py")
    assert "HYG001" not in lint(snippet, filename="test_golden.py")


def test_hyg001_suppressed(lint):
    codes = lint(
        """
        def is_unit(p):
            return p == 1.0  # repro: noqa[HYG001] -- exact short-circuit
        """
    )
    assert "HYG001" not in codes and "NOQ001" not in codes


def test_hyg002_flags_mutable_defaults(lint):
    assert "HYG002" in lint("def f(items=[]):\n    return items\n")
    assert "HYG002" in lint("def f(table={}):\n    return table\n")
    assert "HYG002" in lint("def f(seen=set()):\n    return seen\n")
    assert "HYG002" in lint("def f(*, acc=list()):\n    return acc\n")


def test_hyg002_negative_for_none_and_immutable_defaults(lint):
    codes = lint(
        """
        def f(items=None, limit=32, label="x", pair=(1, 2)):
            return items or []
        """
    )
    assert "HYG002" not in codes


def test_hyg002_suppressed(lint):
    codes = lint(
        """
        def f(items=[]):  # repro: noqa[HYG002] -- fixture
            return items
        """
    )
    assert "HYG002" not in codes and "NOQ001" not in codes


def test_hyg003_flags_reference_functions_and_methods(lint):
    assert "HYG003" in lint("def conv2d_forward_reference(x):\n    return x\n")
    assert "HYG003" in lint(
        """
        class Link:
            def transmit_reference(self, bits):
                return bits
        """
    )


def test_hyg003_negative_for_other_names_and_test_files(lint):
    snippet = "def reference_completions(slots):\n    return slots\n"
    assert "HYG003" not in lint(snippet)
    oracle = "def transmit_reference(link, bits):\n    return bits\n"
    assert "HYG003" not in lint(oracle, filename="tests/channel/link_oracle.py")
    assert "HYG003" not in lint(oracle, filename="test_link.py")


def test_hyg003_is_silent_on_the_shipped_package():
    from pathlib import Path

    import repro
    from repro.analysis import analyze_paths

    report = analyze_paths([Path(repro.__file__).parent], contract="off")
    assert [f.render() for f in report.findings if f.code == "HYG003"] == []
