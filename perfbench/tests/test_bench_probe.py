"""The host probe rescales times by its readings and accounts for its own faults."""

import probe


def test_rescale_divides_by_the_mean_reading():
    assert probe.rescale(2.0, probe.REF_S, probe.REF_S) == 2.0
    assert abs(probe.rescale(3.0, probe.REF_S, 2 * probe.REF_S, 3 * probe.REF_S) - 1.5) < 1e-12


def test_probe_reads_positive_and_counts_its_page_faults():
    host = probe.HostProbe(reps=1)
    assert host() > 0.0
    assert host.minflt > 0  # it maps and touches FAULT_BYTES itself
