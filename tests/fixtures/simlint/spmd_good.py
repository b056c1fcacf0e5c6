"""Fixture: the contract-clean twin of ``spmd_bad``."""


class GoodApp:
    def run_rank(self, proc):
        yield from proc.compute(proc.cost.ops(4))
        value = yield from proc.read(None, 0)
        yield from proc.am.send_request(1, "x", value)
        yield from proc.barrier()

    def setup_rank(self, proc):
        reply = yield from proc.am.rpc(0, "x", None)
        yield proc.sim.sleep(1.0)
        return reply

    def balanced(self, proc):
        # Rank-dependent branches are fine when both sides reach the
        # same collective, or when the branch holds no collectives.
        if proc.rank == 0:
            payload = yield from proc.broadcast("root", root=0)
        else:
            payload = yield from proc.broadcast(None, root=0)
        if proc.rank > 0:
            yield from proc.am.send_request(0, "x", payload)
        return payload

    def register_handlers(self, table):
        table.register("echo", _echo_handler)
        table.register("pair", lambda am, pkt: pkt)


def _echo_handler(am, packet):
    return am, packet
