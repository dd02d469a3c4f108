"""Unit tests for the masking analysis."""

from repro.analysis import classify_violations, masking_probe
from repro.core import NADiners
from repro.sim import System, line, ring


class TestClassifyViolations:
    def test_no_eaters(self):
        c = System(line(3), NADiners()).snapshot()
        assert classify_violations(c) == (0, 0)

    def test_clean_pair(self):
        s = System(line(3), NADiners())
        s.write_local(0, "state", "E")
        s.write_local(1, "state", "E")
        assert classify_violations(s.snapshot()) == (0, 1)

    def test_faulty_involved(self):
        s = System(line(3), NADiners())
        s.write_local(0, "state", "E")
        s.write_local(1, "state", "E")
        s.kill(0)
        assert classify_violations(s.snapshot()) == (1, 0)

    def test_both_dead_not_counted(self):
        s = System(line(3), NADiners())
        s.write_local(0, "state", "E")
        s.write_local(1, "state", "E")
        s.kill(0)
        s.kill(1)
        assert classify_violations(s.snapshot()) == (0, 0)

    def test_malicious_counts_as_faulty(self):
        s = System(line(3), NADiners())
        s.write_local(0, "state", "E")
        s.write_local(1, "state", "E")
        s.mark_malicious(0)
        assert classify_violations(s.snapshot()) == (1, 0)


class TestMaskingProbe:
    def test_clean_pairs_never_violated(self):
        report = masking_probe(
            NADiners(), ring(6), 1, malicious_steps=50, observe=6000, seed=0
        )
        assert report.masks_clean_pairs

    def test_violations_transient(self):
        report = masking_probe(
            NADiners(), ring(6), 1, malicious_steps=50, observe=6000, seed=0
        )
        assert report.violations_transient

    def test_long_malice_produces_faulty_involved(self):
        # across a few seeds the faulty process is seen posing as an eater
        hits = sum(
            masking_probe(
                NADiners(), ring(6), 1, malicious_steps=200, observe=4000, seed=s
            ).faulty_involved
            for s in range(4)
        )
        assert hits > 0
