"""Stand-ins for the writer tests: a trajectory whose branch currents are
given rather than computed, so that any value reaches the current columns."""

from dvocsim.engine import Trajectory


class _GivenCurrents(Trajectory):
    def currents(self, rows):
        return self.given[rows]


def given_currents(traj, currents):
    """``traj`` with ``currents``, an (S+1, N) complex array, in place of
    the currents its states and bus voltage give."""
    fake = _GivenCurrents(traj.t, traj.x, traj.v_o, traj.scenario)
    fake.given = currents
    return fake
