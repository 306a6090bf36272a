"""The solve-mix server process: one ``SolveServer`` with ``workers=0``.

    python3 -m perfbench.serve SOCKET [--trace]

Prints ``ready`` once the socket is bound, serves until a line arrives on
stdin (or stdin closes), stops the server and prints one JSON line: the
server's metrics registry and, with ``--trace``, the spans recorded
around the service's entry points.  Running the server in its own
process keeps the load generator's interpreter lock out of its way.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib
import json
import sys

from perfbench.ledger import Patch, Recorder, Target, dispatch_targets


def targets() -> list[Target]:
    """The solve path's layer entry points, as the server looks them up."""
    from repro.hypergraph.hypergraph import Hypergraph
    from repro.service.server import SolveServer

    server = importlib.import_module("repro.service.server")
    core_result = importlib.import_module("repro.core.result")
    content_hash = Hypergraph.content_hash  # unwrapped; cached after parse

    def doc_id(args, kwargs, result):
        return {"id": str(args[0].get("id"))}

    def request_id(args, kwargs, result):  # SolveServer.handle_doc(self, doc)
        return {"id": str(args[1].get("id"))}

    def decoded_id(args, kwargs, result):
        return {"id": str(result.get("id"))}

    def solved(args, kwargs, result):
        return {"hash": content_hash(args[0]), "seed": args[1]}

    def checked(args, kwargs, result):
        return {"hash": content_hash(args[0])}

    return [
        Target(server, "decode_line", "service.decode", decoded_id),
        Target(SolveServer, "handle_doc", "service.request", request_id),
        Target(server, "parse_solve_request", "hypergraph.parse", doc_id),
        Target(server, "encode_line", "service.encode", doc_id),
        Target(Hypergraph, "content_hash", "hypergraph.content_hash"),
        Target(server, "sbl", "core.sbl", solved),
        Target(server, "beame_luby", "core.bl", solved),
        Target(server, "karp_upfal_wigderson", "core.kuw", solved),
        Target(core_result, "check_mis", "validate.check_mis", checked),
    ] + dispatch_targets()


async def _serve(socket_path: str) -> None:
    from repro.service.server import ServerConfig, SolveServer

    server = SolveServer(ServerConfig(socket_path=socket_path, workers=0))
    await server.start()
    print("ready", flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("socket")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    from repro.obs.metrics import default_registry

    recorder = Recorder()
    # The wrappers go in before the server exists: its solver registry
    # copies the module attributes when the config is built.
    with Patch(recorder, targets() if args.trace else []):
        asyncio.run(_serve(args.socket))
    spans = [[s.name, s.t0, s.t1, s.self_ns, s.thread, s.attrs] for s in recorder.spans]
    print(json.dumps({"metrics": default_registry().snapshot(), "spans": spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
