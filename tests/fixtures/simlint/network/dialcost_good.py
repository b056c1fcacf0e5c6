"""Good twin: every charge flows through params/knobs (or is zero)."""


def tx(self, packet):
    pre = self.knobs.delta_occ + packet.size_bytes * self.params.Gap
    yield self.sim.timeout(pre)
    yield self.sim.timeout(max(0.0, self.params.gap - pre))
    yield self.sim.timeout(0)  # zero: the idiomatic yield point


def deliver(self, event):
    event.succeed(None, delay=self.knobs.delta_L)
    event.succeed(None, delay=0)


def stall(self, pre):
    yield self.sim.sleep(max(0.0, self.params.gap - pre))
    yield self.sim.sleep(0)  # zero, like timeout(0)
