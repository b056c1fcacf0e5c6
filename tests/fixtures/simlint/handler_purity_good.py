"""Fixture: the pure twin of ``handler_purity_bad``.

Handlers only compute, touch host state, and reply; the blocking
primitives live in ordinary SPMD code, where they are allowed.
"""


def _echo_handler(am, packet):
    yield from am.reply(packet.payload)


def _deposit_handler(am, packet):
    am.host.state["deposit"] = packet.payload
    # No reply: the layer auto-acks.


def _bulk_handler(am, packet):
    yield from am.reply_bulk(packet.payload, 4096)


def _slow_echo_handler(am, packet):
    # Charging service time is computing, not blocking: allowed.
    yield am.sim.sleep(am.recv_cost)
    yield from am.reply(packet.payload)


class GoodHandlers:
    def register_handlers(self, table):
        table.register("echo", _echo_handler)
        table.register("deposit", _deposit_handler)
        table.register("slow_echo", _slow_echo_handler)
        table.register("pair", lambda am, pkt: pkt)

    def run_rank(self, proc):
        # The same primitives are fine outside handler context.
        value = yield from proc.am.rpc(0, "echo", 1)
        yield from proc.barrier()
        yield from proc.am.host.poll()
        return value
