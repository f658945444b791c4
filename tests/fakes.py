"""Stand-ins for the writer tests: a trajectory whose bus voltage and branch
currents are given rather than computed, so that any value reaches the bus
voltage and current columns."""

from dvocsim.engine import Trajectory


class _GivenCurrents(Trajectory):
    def bus_and_currents(self, rows):
        v_o, currents = self.given
        return v_o[rows], currents[rows]


def given_currents(traj, v_o, currents):
    """``traj`` with ``v_o``, an (S+1,) complex array, and ``currents``, an
    (S+1, N) complex array, in place of the bus voltage and currents its
    states give."""
    fake = _GivenCurrents(traj.t, traj.x, traj.scenario)
    fake.given = v_o, currents
    return fake
