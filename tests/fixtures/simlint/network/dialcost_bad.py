"""Bad fixture: hard-coded time charges the dials cannot turn."""


def tx(self, packet):
    yield self.sim.timeout(3.0)  # untracked-dial-cost
    yield self.sim.timeout(2 * 1.5)  # untracked-dial-cost (const expr)
    yield self.sim.timeout(self.knobs.delta_g)  # OK: knob-derived


def deliver(self, event):
    event.succeed(None, delay=0.5)  # untracked-dial-cost
    event.succeed(None, delay=self.knobs.delta_L)  # OK: knob-derived
    event.succeed(None)  # OK: immediate


def stall(self):
    yield self.sim.sleep(3.0)  # untracked-dial-cost
    yield self.sim.sleep(self.knobs.delta_g)  # OK: knob-derived
    yield self.sim.sleep(0)  # OK: zero
